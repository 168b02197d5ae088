//! Expectation-DSL coverage: parser rejections with good errors, and
//! every `Expectation` kind evaluated against tiny synthetic CSV
//! fixtures — one passing and one deliberately violated case per kind.

use elanib_validate::csv::Table;
use elanib_validate::expect::ExpectFile;

/// Parse a one-term expectation file around the given `[[expect]]`
/// body.
fn one_term(body: &str) -> Result<ExpectFile, String> {
    let text = format!("exhibit = \"Figure T\"\nfile = \"t.csv\"\n\n[[expect]]\n{body}\n");
    ExpectFile::parse("t.toml", &text)
}

/// Evaluate a single-term expectation file against CSV text; returns
/// violation messages.
fn eval(body: &str, csv: &str) -> Vec<String> {
    let ef = one_term(body).expect("expectation should parse");
    let t = Table::parse(csv).expect("fixture CSV should parse");
    ef.terms[0]
        .expectation
        .check(&t)
        .into_iter()
        .map(|v| v.message)
        .collect()
}

// A small two-series latency-style fixture: `b` always wins (lower),
// `a` has a discontinuity at key 30.
const LAT: &str = "k,a,b\n10,4.0,2.0\n20,4.4,2.2\n30,9.0,2.4\n40,9.2,2.6\n";

// ---------------------------------------------------------------- parser

#[test]
fn parser_rejects_bad_range() {
    let err = one_term(
        "kind = \"monotonic\"\nseries = \"a\"\ndirection = \"increasing\"\nrange = [100, 1]",
    )
    .unwrap_err();
    assert!(err.contains("lower bound exceeds upper"), "{err}");
    let err =
        one_term("kind = \"monotonic\"\nseries = \"a\"\ndirection = \"increasing\"\nrange = [1]")
            .unwrap_err();
    assert!(err.contains("two numbers"), "{err}");
}

#[test]
fn parser_rejects_zero_tolerance() {
    let err =
        one_term("kind = \"crossover\"\nbetween = [\"a\", \"b\"]\nnear = 30\ntol = 0").unwrap_err();
    assert!(err.contains("`tol` must be > 0"), "{err}");
    let err =
        one_term("kind = \"anomaly\"\nseries = \"a\"\nat = 30\ndirection = \"up\"\nmin_jump = 1.0")
            .unwrap_err();
    assert!(err.contains("`min_jump` must be > 1"), "{err}");
}

#[test]
fn parser_rejects_unknown_kind_and_keys() {
    let err = one_term("kind = \"wibble\"").unwrap_err();
    assert!(err.contains("unknown kind `wibble`"), "{err}");
    let err = one_term("kind = \"bound\"\nseries = \"a\"\nmin = 1\nmin_facto = 2").unwrap_err();
    assert!(err.contains("unknown key `min_facto`"), "{err}");
}

#[test]
fn parser_rejects_degenerate_bounds() {
    let err = one_term("kind = \"bound\"\nseries = \"a\"").unwrap_err();
    assert!(err.contains("needs `min`, `max`, or both"), "{err}");
    let err = one_term("kind = \"bound\"\nseries = \"a\"\nmin = 5\nmax = 2").unwrap_err();
    assert!(err.contains("min 5 exceeds max 2"), "{err}");
    let err = one_term(
        "kind = \"wins\"\nseries = \"a\"\nover = \"b\"\nbetter = \"lower\"\nmin_factor = 0.5",
    )
    .unwrap_err();
    assert!(err.contains("`min_factor` must be >= 1"), "{err}");
}

#[test]
fn parser_reports_file_and_block_position() {
    let text = "exhibit = \"X\"\nfile = \"x.csv\"\n[[expect]]\nkind = \"bound\"\nseries = \"a\"\n";
    let err = ExpectFile::parse("pos.toml", text).unwrap_err();
    assert!(err.contains("pos.toml:3 [[expect]] #1"), "{err}");
}

#[test]
fn unknown_series_is_a_violation_with_column_listing() {
    let msgs = eval("kind = \"bound\"\nseries = \"nope\"\nmin = 0", LAT);
    assert_eq!(msgs.len(), 1);
    assert!(msgs[0].contains("unknown series `nope`"), "{}", msgs[0]);
    assert!(
        msgs[0].contains("`a`"),
        "should list available columns: {}",
        msgs[0]
    );
}

// ------------------------------------------------------------- evaluators

#[test]
fn wins_passes_and_fails() {
    let pass = eval(
        "kind = \"wins\"\nseries = \"b\"\nover = \"a\"\nbetter = \"lower\"\nmin_factor = 1.5",
        LAT,
    );
    assert!(pass.is_empty(), "{pass:?}");
    let fail = eval(
        "kind = \"wins\"\nseries = \"b\"\nover = \"a\"\nbetter = \"lower\"\nmin_factor = 2.1",
        LAT,
    );
    // Rows 10 (factor 2.0) and 20 (factor 2.0) miss the 2.1x bar.
    assert_eq!(fail.len(), 2, "{fail:?}");
    assert!(
        fail[0].contains("factor 2.000 < required 2.1"),
        "{}",
        fail[0]
    );
}

#[test]
fn wins_respects_range_and_direction() {
    // `a` "wins" when higher is better.
    let pass = eval(
        "kind = \"wins\"\nseries = \"a\"\nover = \"b\"\nbetter = \"higher\"\nmin_factor = 2.0\nrange = [30, 40]",
        LAT,
    );
    assert!(pass.is_empty(), "{pass:?}");
}

#[test]
fn crossover_passes_and_fails() {
    let csv = "k,a,b\n1,1.0,3.0\n2,2.0,2.5\n4,3.0,2.0\n8,4.0,1.5\n";
    let pass = eval(
        "kind = \"crossover\"\nbetween = [\"a\", \"b\"]\nnear = 4\ntol = 1",
        csv,
    );
    assert!(pass.is_empty(), "{pass:?}");
    let fail = eval(
        "kind = \"crossover\"\nbetween = [\"a\", \"b\"]\nnear = 16\ntol = 2",
        csv,
    );
    assert_eq!(fail.len(), 1);
    assert!(fail[0].contains("at key 4"), "{}", fail[0]);
    // No crossover at all in the LAT fixture.
    let fail = eval(
        "kind = \"crossover\"\nbetween = [\"a\", \"b\"]\nnear = 20\ntol = 5",
        LAT,
    );
    assert!(fail[0].contains("never cross"), "{}", fail[0]);
}

#[test]
fn monotonic_passes_and_fails() {
    let pass = eval(
        "kind = \"monotonic\"\nseries = \"a\"\ndirection = \"increasing\"",
        LAT,
    );
    assert!(pass.is_empty(), "{pass:?}");
    let fail = eval(
        "kind = \"monotonic\"\nseries = \"a\"\ndirection = \"decreasing\"",
        LAT,
    );
    assert_eq!(fail.len(), 3, "{fail:?}");
    // Plateaus pass non-strict but fail strict.
    let plateau = "k,a\n1,5.0\n2,5.0\n3,6.0\n";
    assert!(eval(
        "kind = \"monotonic\"\nseries = \"a\"\ndirection = \"increasing\"",
        plateau
    )
    .is_empty());
    let strict = eval(
        "kind = \"monotonic\"\nseries = \"a\"\ndirection = \"increasing\"\nstrict = true",
        plateau,
    );
    assert_eq!(strict.len(), 1, "{strict:?}");
}

#[test]
fn within_factor_passes_and_fails() {
    let pass = eval(
        "kind = \"within_factor\"\nseries = \"a\"\nof = \"b\"\nmax_factor = 4.0",
        LAT,
    );
    assert!(pass.is_empty(), "{pass:?}");
    let fail = eval(
        "kind = \"within_factor\"\nseries = \"a\"\nof = \"b\"\nmax_factor = 3.0",
        LAT,
    );
    // Rows 30 (9.0 vs 2.4 = 3.75x) and 40 (9.2 vs 2.6 = 3.54x).
    assert_eq!(fail.len(), 2, "{fail:?}");
    // Against a constant.
    let pass = eval(
        "kind = \"within_factor\"\nseries = \"b\"\nvalue = 2.3\nmax_factor = 1.2\n",
        LAT,
    );
    assert!(pass.is_empty(), "{pass:?}");
    let fail = eval(
        "kind = \"within_factor\"\nseries = \"b\"\nvalue = 2.0\nmax_factor = 1.05\n",
        LAT,
    );
    assert_eq!(fail.len(), 3, "{fail:?}");
}

#[test]
fn anomaly_passes_and_fails() {
    // `a` jumps 4.4 -> 9.0 at key 30 (2.05x).
    let pass = eval(
        "kind = \"anomaly\"\nseries = \"a\"\nat = 30\ndirection = \"up\"\nmin_jump = 2.0",
        LAT,
    );
    assert!(pass.is_empty(), "{pass:?}");
    let fail = eval(
        "kind = \"anomaly\"\nseries = \"a\"\nat = 40\ndirection = \"up\"\nmin_jump = 2.0",
        LAT,
    );
    assert_eq!(fail.len(), 1);
    assert!(fail[0].contains("expected a upward jump"), "{}", fail[0]);
    let fail = eval(
        "kind = \"anomaly\"\nseries = \"a\"\nat = 35\ndirection = \"up\"\nmin_jump = 2.0",
        LAT,
    );
    assert!(fail[0].contains("anomaly site missing"), "{}", fail[0]);
    // Downward jump.
    let dive = "k,a\n1,100.0\n2,40.0\n4,35.0\n";
    assert!(eval(
        "kind = \"anomaly\"\nseries = \"a\"\nat = 2\ndirection = \"down\"\nmin_jump = 2.0",
        dive
    )
    .is_empty());
}

#[test]
fn bound_passes_and_fails() {
    let pass = eval(
        "kind = \"bound\"\nseries = \"b\"\nmin = 2.0\nmax = 2.6",
        LAT,
    );
    assert!(pass.is_empty(), "{pass:?}");
    let fail = eval(
        "kind = \"bound\"\nseries = \"b\"\nmin = 2.1\nmax = 2.5",
        LAT,
    );
    assert_eq!(fail.len(), 2, "{fail:?}");
    assert!(fail[0].contains("below minimum 2.1"), "{}", fail[0]);
    assert!(fail[1].contains("above maximum 2.5"), "{}", fail[1]);
}

#[test]
fn row_count_passes_and_fails() {
    assert!(eval("kind = \"row_count\"\nmin = 4\nmax = 4", LAT).is_empty());
    let fail = eval("kind = \"row_count\"\nmin = 5", LAT);
    assert!(
        fail[0].contains("has 4 rows, expected at least 5"),
        "{}",
        fail[0]
    );
    let fail = eval("kind = \"row_count\"\nmax = 1\nrange = [10, 20]", LAT);
    assert!(
        fail[0].contains("has 2 rows, expected at most 1"),
        "{}",
        fail[0]
    );
}

#[test]
fn cell_passes_and_fails() {
    let csv = "net,status\nIB,QP-ERR\nElan,79.9\n";
    assert!(eval(
        "kind = \"cell\"\nseries = \"status\"\nrow = \"IB\"\nequals = \"QP-ERR\"",
        csv
    )
    .is_empty());
    let fail = eval(
        "kind = \"cell\"\nseries = \"status\"\nrow = \"Elan\"\nequals = \"QP-ERR\"",
        csv,
    );
    assert_eq!(fail.len(), 1);
    assert!(fail[0].contains("does not equal `QP-ERR`"), "{}", fail[0]);
    assert!(eval(
        "kind = \"cell\"\nseries = \"status\"\nrow = \"IB\"\ncontains = \"ERR\"",
        csv
    )
    .is_empty());
}

// -------------------------------------------------------------- selectors

#[test]
fn filter_matches_numerically() {
    // "0.01" written in the expectation matches the "0.01000" the
    // formatter emits.
    let csv = "bytes,rate,v\n64,0.01000,5.0\n64,0.03000,9.0\n";
    let pass = eval(
        "kind = \"bound\"\nseries = \"v\"\nfilter_col = \"rate\"\nfilter_val = \"0.01\"\nmax = 6.0",
        csv,
    );
    assert!(pass.is_empty(), "{pass:?}");
    let fail = eval(
        "kind = \"bound\"\nseries = \"v\"\nfilter_col = \"rate\"\nfilter_val = \"0.03\"\nmax = 6.0",
        csv,
    );
    assert_eq!(fail.len(), 1, "{fail:?}");
}

#[test]
fn empty_selection_is_a_violation() {
    let msgs = eval(
        "kind = \"bound\"\nseries = \"a\"\nmin = 0\nrange = [1000, 2000]",
        LAT,
    );
    assert_eq!(msgs.len(), 1);
    assert!(msgs[0].contains("matched no rows"), "{}", msgs[0]);
}

#[test]
fn non_numeric_cell_in_numeric_term_is_a_violation() {
    let csv = "k,a\n1,2.0\n2,QP-ERR\n";
    let msgs = eval("kind = \"bound\"\nseries = \"a\"\nmin = 0", csv);
    assert_eq!(msgs.len(), 1);
    assert!(msgs[0].contains("`QP-ERR`"), "{}", msgs[0]);
    assert!(msgs[0].contains("not numeric"), "{}", msgs[0]);
}

// -------------------------------------------------------------- invariant

#[test]
fn invariant_passes_on_exact_equality() {
    let msgs = eval(
        "kind = \"invariant\"\nname = \"self\"\nseries = \"a\"\nof = \"a\"",
        LAT,
    );
    assert!(msgs.is_empty(), "{msgs:?}");
}

#[test]
fn invariant_flags_every_unequal_row() {
    let msgs = eval(
        "kind = \"invariant\"\nname = \"conservation\"\nseries = \"a\"\nof = \"b\"",
        LAT,
    );
    assert_eq!(msgs.len(), 4, "{msgs:?}");
    assert!(
        msgs[0].contains("invariant `conservation` broken at row"),
        "{}",
        msgs[0]
    );
}

#[test]
fn invariant_against_constant_value() {
    let csv = "k,sent,recv\n1,8.0,8.0\n2,8.0,7.0\n";
    let pass = eval(
        "kind = \"invariant\"\nname = \"c\"\nseries = \"sent\"\nvalue = 8.0",
        csv,
    );
    assert!(pass.is_empty(), "{pass:?}");
    let fail = eval(
        "kind = \"invariant\"\nname = \"c\"\nseries = \"recv\"\nvalue = 8.0",
        csv,
    );
    assert_eq!(fail.len(), 1, "{fail:?}");
    assert!(fail[0].contains("`2`"), "{}", fail[0]);
}

#[test]
fn invariant_rejects_both_or_neither_comparand() {
    let both =
        one_term("kind = \"invariant\"\nname = \"x\"\nseries = \"a\"\nof = \"b\"\nvalue = 1.0");
    assert!(both.is_err());
    let neither = one_term("kind = \"invariant\"\nname = \"x\"\nseries = \"a\"");
    assert!(neither.is_err());
}
