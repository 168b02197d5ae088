//! The expectation DSL: declarative terms about the *shape* of an
//! exhibit table, each checkable against a parsed CSV.
//!
//! | kind            | claim it encodes |
//! |-----------------|------------------|
//! | `wins`          | one series beats another by at least a factor over a key range |
//! | `crossover`     | two series swap order near a given key |
//! | `monotonic`     | a series only rises (or only falls) over a key range |
//! | `within_factor` | a series stays within a factor of another series or a constant |
//! | `anomaly`       | a series jumps discontinuously at one key (superlinear spike, CG dive, eager/rendezvous dip) |
//! | `bound`         | selected values sit inside `[min, max]` |
//! | `row_count`     | the selection has between `min` and `max` rows |
//! | `cell`          | a selected text cell equals / contains a string (`QP-ERR`, platform rows) |
//!
//! Every term also takes the common row selectors `range = [lo, hi]`
//! (numeric key, first column), `row = "<key>"` (exact first-column
//! text), and `filter_col` / `filter_val` (exact match on any column,
//! numeric-aware). Selectors compose with AND; an empty selection is
//! itself a violation — an expectation that matches nothing is stale.
//!
//! Tolerances are mandatory where they are meaningful and validated at
//! parse time: a `crossover` with `tol = 0` or an `anomaly` with
//! `min_jump = 1` would assert floating-point luck, not paper shape,
//! and is rejected with an error naming the file and block.

use std::collections::BTreeSet;

use crate::csv::Table;
use crate::toml::{self, Value};

/// One failed check. The message is self-contained: it names the rows
/// and values that broke the claim.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub message: String,
}

impl Violation {
    pub fn new(message: impl Into<String>) -> Violation {
        Violation {
            message: message.into(),
        }
    }
}

/// Which direction is "better" for a `wins` term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Direction for `monotonic`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Increasing,
    Decreasing,
}

/// Direction for `anomaly`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Jump {
    Up,
    Down,
}

/// Reference value for `within_factor`.
#[derive(Debug, Clone, PartialEq)]
pub enum Of {
    Series(String),
    Value(f64),
}

/// Row selectors shared by every kind (all optional, ANDed).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Select {
    /// Numeric key (first column) in `[lo, hi]`.
    pub range: Option<(f64, f64)>,
    /// Exact first-column text.
    pub row: Option<String>,
    /// Exact match on a named column (numeric-aware: `"0.01000"`
    /// matches `0.01`).
    pub filter: Option<(String, String)>,
}

impl Select {
    /// Indices of the rows this selection keeps, in table order.
    fn rows(&self, t: &Table) -> Result<Vec<usize>, Violation> {
        let filter_col = match &self.filter {
            Some((col, _)) => Some(t.col(col).ok_or_else(|| {
                Violation::new(format!("unknown filter column `{col}` (have: {})", cols(t)))
            })?),
            None => None,
        };
        let mut out = Vec::new();
        for r in 0..t.rows.len() {
            if let Some((lo, hi)) = self.range {
                match t.key_num(r) {
                    Some(k) if k >= lo && k <= hi => {}
                    _ => continue,
                }
            }
            if let Some(row) = &self.row {
                if t.cell(r, 0) != row {
                    continue;
                }
            }
            if let (Some(ci), Some((_, want))) = (filter_col, &self.filter) {
                if !cell_matches(t.cell(r, ci), want) {
                    continue;
                }
            }
            out.push(r);
        }
        if out.is_empty() {
            return Err(Violation::new(format!(
                "selection matched no rows ({})",
                self.describe_or("all rows")
            )));
        }
        Ok(out)
    }

    fn describe_or(&self, empty: &str) -> String {
        let mut parts = Vec::new();
        if let Some((lo, hi)) = self.range {
            parts.push(format!("key in [{lo}, {hi}]"));
        }
        if let Some(row) = &self.row {
            parts.push(format!("row `{row}`"));
        }
        if let Some((c, v)) = &self.filter {
            parts.push(format!("{c} = {v}"));
        }
        if parts.is_empty() {
            empty.to_string()
        } else {
            parts.join(", ")
        }
    }
}

/// Exact-or-numeric cell match: `"0.01"` matches a `0.01000` cell.
fn cell_matches(cell: &str, want: &str) -> bool {
    if cell == want {
        return true;
    }
    match (cell.trim().parse::<f64>(), want.trim().parse::<f64>()) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    }
}

fn cols(t: &Table) -> String {
    t.columns
        .iter()
        .map(|c| format!("`{c}`"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// One expectation term.
#[derive(Debug, Clone, PartialEq)]
pub enum Expectation {
    Wins {
        series: String,
        over: String,
        better: Better,
        min_factor: f64,
        select: Select,
    },
    Crossover {
        between: (String, String),
        near: f64,
        tol: f64,
        select: Select,
    },
    Monotonic {
        series: String,
        direction: Direction,
        strict: bool,
        select: Select,
    },
    WithinFactor {
        series: String,
        of: Of,
        max_factor: f64,
        select: Select,
    },
    Anomaly {
        series: String,
        at: f64,
        jump: Jump,
        min_jump: f64,
        select: Select,
    },
    Bound {
        series: String,
        min: Option<f64>,
        max: Option<f64>,
        select: Select,
    },
    RowCount {
        min: Option<usize>,
        max: Option<usize>,
        select: Select,
    },
    Cell {
        series: String,
        equals: Option<String>,
        contains: Option<String>,
        select: Select,
    },
    /// An exact identity: `series` must equal another column (or a
    /// constant) **exactly**, row by row — no tolerance, no factor. For
    /// accounting terms such as "the parts sum to the total" or
    /// `sent == delivered`. Distinct from `within_factor` (which
    /// tolerates and requires positive values) because an identity
    /// that "almost" holds is a bug.
    Invariant {
        /// Label naming the invariant in reports ("byte-conservation").
        name: String,
        series: String,
        of: Of,
        select: Select,
    },
}

/// A term plus its optional per-term CSV override.
#[derive(Debug, Clone, PartialEq)]
pub struct Term {
    pub file: Option<String>,
    pub expectation: Expectation,
}

/// A parsed expectation file.
#[derive(Debug, Clone)]
pub struct ExpectFile {
    /// File name of the TOML source, for report labels.
    pub source: String,
    /// Paper exhibit id this file covers, e.g. `"Figure 1(a)"`.
    pub exhibit: String,
    /// Default CSV (relative to the results dir) for terms without an
    /// explicit `file`.
    pub default_file: String,
    pub terms: Vec<Term>,
}

impl ExpectFile {
    /// Parse from TOML text. `name` labels errors.
    pub fn parse(name: &str, text: &str) -> Result<ExpectFile, String> {
        let doc = toml::parse(name, text)?;
        let mut top_keys: BTreeSet<&str> = doc.top.keys().map(|k| k.as_str()).collect();
        let exhibit = req_str(name, "top level", &doc.top, "exhibit", &mut top_keys)?;
        let default_file = req_str(name, "top level", &doc.top, "file", &mut top_keys)?;
        // `title` is allowed as free-form documentation.
        top_keys.remove("title");
        if let Some(k) = top_keys.iter().next() {
            return Err(format!("{name}: unknown top-level key `{k}`"));
        }
        if doc.expects.is_empty() {
            return Err(format!("{name}: no [[expect]] blocks"));
        }
        let mut terms = Vec::with_capacity(doc.expects.len());
        for (i, (lineno, block)) in doc.expects.iter().enumerate() {
            let ctx = format!("{name}:{lineno} [[expect]] #{}", i + 1);
            terms.push(parse_term(&ctx, block)?);
        }
        Ok(ExpectFile {
            source: name.to_string(),
            exhibit,
            default_file,
            terms,
        })
    }
}

fn req_str(
    name: &str,
    ctx: &str,
    table: &toml::Table,
    key: &str,
    keys: &mut BTreeSet<&str>,
) -> Result<String, String> {
    keys.remove(key);
    match table.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(v) => Err(format!(
            "{name}: {ctx}: `{key}` must be a string, got {}",
            v.type_name()
        )),
        None => Err(format!("{name}: {ctx}: missing required key `{key}`")),
    }
}

/// Key-tracked accessor over one `[[expect]]` block: every key must be
/// consumed, so typos (`min_facto = 2`) fail parsing instead of
/// silently weakening the check.
struct Block<'a> {
    ctx: &'a str,
    table: &'a toml::Table,
    unused: BTreeSet<&'a str>,
}

impl<'a> Block<'a> {
    fn new(ctx: &'a str, table: &'a toml::Table) -> Block<'a> {
        Block {
            ctx,
            table,
            unused: table.keys().map(|k| k.as_str()).collect(),
        }
    }
    fn get(&mut self, key: &str) -> Option<&'a Value> {
        self.unused.remove(key);
        self.table.get(key)
    }
    fn str(&mut self, key: &str) -> Result<Option<String>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(Value::Str(s)) => Ok(Some(s.clone())),
            Some(v) => Err(format!(
                "{}: `{key}` must be a string, got {}",
                self.ctx,
                v.type_name()
            )),
        }
    }
    fn req_str(&mut self, key: &str) -> Result<String, String> {
        self.str(key)?
            .ok_or_else(|| format!("{}: missing required key `{key}`", self.ctx))
    }
    fn num(&mut self, key: &str) -> Result<Option<f64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(Value::Num(n)) => Ok(Some(*n)),
            Some(v) => Err(format!(
                "{}: `{key}` must be a number, got {}",
                self.ctx,
                v.type_name()
            )),
        }
    }
    fn req_num(&mut self, key: &str) -> Result<f64, String> {
        self.num(key)?
            .ok_or_else(|| format!("{}: missing required key `{key}`", self.ctx))
    }
    fn bool(&mut self, key: &str, default: bool) -> Result<bool, String> {
        match self.get(key) {
            None => Ok(default),
            Some(Value::Bool(b)) => Ok(*b),
            Some(v) => Err(format!(
                "{}: `{key}` must be a boolean, got {}",
                self.ctx,
                v.type_name()
            )),
        }
    }
    fn count(&mut self, key: &str) -> Result<Option<usize>, String> {
        match self.num(key)? {
            None => Ok(None),
            Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(Some(n as usize)),
            Some(n) => Err(format!(
                "{}: `{key}` must be a non-negative integer, got {n}",
                self.ctx
            )),
        }
    }
    fn select(&mut self) -> Result<Select, String> {
        let range = match self.get("range") {
            None => None,
            Some(Value::Arr(items)) => {
                let nums: Option<Vec<f64>> = items.iter().map(|v| v.as_num()).collect();
                match nums.as_deref() {
                    Some([lo, hi]) if lo <= hi => Some((*lo, *hi)),
                    Some([lo, hi]) => {
                        return Err(format!(
                            "{}: bad range [{lo}, {hi}]: lower bound exceeds upper",
                            self.ctx
                        ))
                    }
                    _ => {
                        return Err(format!(
                            "{}: `range` must be [lo, hi] with two numbers",
                            self.ctx
                        ))
                    }
                }
            }
            Some(v) => {
                return Err(format!(
                    "{}: `range` must be an array, got {}",
                    self.ctx,
                    v.type_name()
                ))
            }
        };
        let row = self.str("row")?;
        let filter = match (self.str("filter_col")?, self.str("filter_val")?) {
            (Some(c), Some(v)) => Some((c, v)),
            (None, None) => None,
            _ => {
                return Err(format!(
                    "{}: `filter_col` and `filter_val` must be given together",
                    self.ctx
                ))
            }
        };
        Ok(Select { range, row, filter })
    }
    fn finish(self) -> Result<(), String> {
        if let Some(k) = self.unused.iter().next() {
            return Err(format!("{}: unknown key `{k}`", self.ctx));
        }
        Ok(())
    }
}

fn parse_term(ctx: &str, table: &toml::Table) -> Result<Term, String> {
    let mut b = Block::new(ctx, table);
    let kind = b.req_str("kind")?;
    let file = b.str("file")?;
    let select = b.select()?;
    let expectation = match kind.as_str() {
        "wins" => {
            let series = b.req_str("series")?;
            let over = b.req_str("over")?;
            let better = match b.req_str("better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => {
                    return Err(format!(
                        "{ctx}: `better` must be \"lower\" or \"higher\", got \"{other}\""
                    ))
                }
            };
            let min_factor = b.req_num("min_factor")?;
            if min_factor < 1.0 {
                return Err(format!(
                    "{ctx}: `min_factor` must be >= 1 (a win by less than 1x is a loss), got {min_factor}"
                ));
            }
            Expectation::Wins {
                series,
                over,
                better,
                min_factor,
                select,
            }
        }
        "crossover" => {
            let between = match b.get("between") {
                Some(Value::Arr(items)) => {
                    let strs: Option<Vec<&str>> = items.iter().map(|v| v.as_str()).collect();
                    match strs.as_deref() {
                        Some([a, c]) => (a.to_string(), c.to_string()),
                        _ => {
                            return Err(format!(
                                "{ctx}: `between` must be an array of two series names"
                            ))
                        }
                    }
                }
                _ => {
                    return Err(format!(
                        "{ctx}: missing required key `between` (array of two series names)"
                    ))
                }
            };
            let near = b.req_num("near")?;
            let tol = b.req_num("tol")?;
            if tol <= 0.0 {
                return Err(format!(
                    "{ctx}: `tol` must be > 0 (zero tolerance asserts floating-point luck, not paper shape), got {tol}"
                ));
            }
            Expectation::Crossover {
                between,
                near,
                tol,
                select,
            }
        }
        "monotonic" => {
            let series = b.req_str("series")?;
            let direction = match b.req_str("direction")?.as_str() {
                "increasing" => Direction::Increasing,
                "decreasing" => Direction::Decreasing,
                other => {
                    return Err(format!(
                    "{ctx}: `direction` must be \"increasing\" or \"decreasing\", got \"{other}\""
                ))
                }
            };
            let strict = b.bool("strict", false)?;
            Expectation::Monotonic {
                series,
                direction,
                strict,
                select,
            }
        }
        "within_factor" => {
            let series = b.req_str("series")?;
            let of = match (b.str("of")?, b.num("value")?) {
                (Some(s), None) => Of::Series(s),
                (None, Some(v)) => Of::Value(v),
                _ => {
                    return Err(format!(
                        "{ctx}: exactly one of `of` (series) or `value` (number) is required"
                    ))
                }
            };
            let max_factor = b.req_num("max_factor")?;
            if max_factor < 1.0 {
                return Err(format!(
                    "{ctx}: `max_factor` must be >= 1, got {max_factor}"
                ));
            }
            Expectation::WithinFactor {
                series,
                of,
                max_factor,
                select,
            }
        }
        "anomaly" => {
            let series = b.req_str("series")?;
            let at = b.req_num("at")?;
            let jump = match b.req_str("direction")?.as_str() {
                "up" => Jump::Up,
                "down" => Jump::Down,
                other => {
                    return Err(format!(
                        "{ctx}: `direction` must be \"up\" or \"down\", got \"{other}\""
                    ))
                }
            };
            let min_jump = b.req_num("min_jump")?;
            if min_jump <= 1.0 {
                return Err(format!(
                    "{ctx}: `min_jump` must be > 1 (a jump of 1x is no anomaly), got {min_jump}"
                ));
            }
            Expectation::Anomaly {
                series,
                at,
                jump,
                min_jump,
                select,
            }
        }
        "bound" => {
            let series = b.req_str("series")?;
            let min = b.num("min")?;
            let max = b.num("max")?;
            match (min, max) {
                (None, None) => return Err(format!("{ctx}: `bound` needs `min`, `max`, or both")),
                (Some(lo), Some(hi)) if lo > hi => {
                    return Err(format!("{ctx}: bound min {lo} exceeds max {hi}"))
                }
                _ => {}
            }
            Expectation::Bound {
                series,
                min,
                max,
                select,
            }
        }
        "row_count" => {
            let min = b.count("min")?;
            let max = b.count("max")?;
            if min.is_none() && max.is_none() {
                return Err(format!("{ctx}: `row_count` needs `min`, `max`, or both"));
            }
            if let (Some(lo), Some(hi)) = (min, max) {
                if lo > hi {
                    return Err(format!("{ctx}: row_count min {lo} exceeds max {hi}"));
                }
            }
            Expectation::RowCount { min, max, select }
        }
        "cell" => {
            let series = b.req_str("series")?;
            let equals = b.str("equals")?;
            let contains = b.str("contains")?;
            if equals.is_some() == contains.is_some() {
                return Err(format!(
                    "{ctx}: `cell` needs exactly one of `equals` or `contains`"
                ));
            }
            Expectation::Cell {
                series,
                equals,
                contains,
                select,
            }
        }
        "invariant" => {
            let name = b.req_str("name")?;
            let series = b.req_str("series")?;
            let of = match (b.str("of")?, b.num("value")?) {
                (Some(s), None) => Of::Series(s),
                (None, Some(v)) => Of::Value(v),
                _ => {
                    return Err(format!(
                        "{ctx}: exactly one of `of` (series) or `value` (number) is required"
                    ))
                }
            };
            Expectation::Invariant {
                name,
                series,
                of,
                select,
            }
        }
        other => {
            return Err(format!(
                "{ctx}: unknown kind `{other}` (expected wins, crossover, monotonic, \
                 within_factor, anomaly, bound, row_count, cell, or invariant)"
            ))
        }
    };
    b.finish()?;
    Ok(Term { file, expectation })
}

impl Expectation {
    pub fn kind_name(&self) -> &'static str {
        match self {
            Expectation::Wins { .. } => "wins",
            Expectation::Crossover { .. } => "crossover",
            Expectation::Monotonic { .. } => "monotonic",
            Expectation::WithinFactor { .. } => "within_factor",
            Expectation::Anomaly { .. } => "anomaly",
            Expectation::Bound { .. } => "bound",
            Expectation::RowCount { .. } => "row_count",
            Expectation::Cell { .. } => "cell",
            Expectation::Invariant { .. } => "invariant",
        }
    }

    fn select(&self) -> &Select {
        match self {
            Expectation::Wins { select, .. }
            | Expectation::Crossover { select, .. }
            | Expectation::Monotonic { select, .. }
            | Expectation::WithinFactor { select, .. }
            | Expectation::Anomaly { select, .. }
            | Expectation::Bound { select, .. }
            | Expectation::RowCount { select, .. }
            | Expectation::Cell { select, .. }
            | Expectation::Invariant { select, .. } => select,
        }
    }

    /// One-line human description for reports.
    pub fn describe(&self) -> String {
        let sel = self.select().describe_or("all rows");
        match self {
            Expectation::Wins {
                series,
                over,
                better,
                min_factor,
                ..
            } => format!(
                "`{series}` beats `{over}` ({} is better) by >= {min_factor}x on {sel}",
                match better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                }
            ),
            Expectation::Crossover {
                between: (a, c),
                near,
                tol,
                ..
            } => format!("`{a}` and `{c}` cross near key {near} (+/- {tol}) on {sel}"),
            Expectation::Monotonic {
                series,
                direction,
                strict,
                ..
            } => format!(
                "`{series}` is {}{} on {sel}",
                if *strict { "strictly " } else { "" },
                match direction {
                    Direction::Increasing => "increasing",
                    Direction::Decreasing => "decreasing",
                },
            ),
            Expectation::WithinFactor {
                series,
                of,
                max_factor,
                ..
            } => match of {
                Of::Series(o) => {
                    format!("`{series}` within {max_factor}x of `{o}` on {sel}")
                }
                Of::Value(v) => format!("`{series}` within {max_factor}x of {v} on {sel}"),
            },
            Expectation::Anomaly {
                series,
                at,
                jump,
                min_jump,
                ..
            } => format!(
                "`{series}` jumps {} by >= {min_jump}x at key {at} on {sel}",
                match jump {
                    Jump::Up => "up",
                    Jump::Down => "down",
                }
            ),
            Expectation::Bound {
                series, min, max, ..
            } => {
                let lo = min.map(|v| format!("{v} <= ")).unwrap_or_default();
                let hi = max.map(|v| format!(" <= {v}")).unwrap_or_default();
                format!("{lo}`{series}`{hi} on {sel}")
            }
            Expectation::RowCount { min, max, .. } => {
                let lo = min.map(|v| format!("{v} <= ")).unwrap_or_default();
                let hi = max.map(|v| format!(" <= {v}")).unwrap_or_default();
                format!("{lo}row count{hi} on {sel}")
            }
            Expectation::Cell {
                series,
                equals,
                contains,
                ..
            } => match (equals, contains) {
                (Some(e), _) => format!("`{series}` == \"{e}\" on {sel}"),
                (_, Some(c)) => format!("`{series}` contains \"{c}\" on {sel}"),
                _ => unreachable!("parser enforces equals xor contains"),
            },
            Expectation::Invariant {
                name, series, of, ..
            } => match of {
                Of::Series(o) => {
                    format!("invariant `{name}`: `{series}` == `{o}` exactly on {sel}")
                }
                Of::Value(v) => {
                    format!("invariant `{name}`: `{series}` == {v} exactly on {sel}")
                }
            },
        }
    }

    /// Evaluate against a table. Empty = the claim holds.
    pub fn check(&self, t: &Table) -> Vec<Violation> {
        let rows = match self.select().rows(t) {
            Ok(r) => r,
            Err(v) => return vec![v],
        };
        match self {
            Expectation::Wins {
                series,
                over,
                better,
                min_factor,
                ..
            } => check_wins(t, &rows, series, over, *better, *min_factor),
            Expectation::Crossover {
                between, near, tol, ..
            } => check_crossover(t, &rows, between, *near, *tol),
            Expectation::Monotonic {
                series,
                direction,
                strict,
                ..
            } => check_monotonic(t, &rows, series, *direction, *strict),
            Expectation::WithinFactor {
                series,
                of,
                max_factor,
                ..
            } => check_within(t, &rows, series, of, *max_factor),
            Expectation::Anomaly {
                series,
                at,
                jump,
                min_jump,
                ..
            } => check_anomaly(t, &rows, series, *at, *jump, *min_jump),
            Expectation::Bound {
                series, min, max, ..
            } => check_bound(t, &rows, series, *min, *max),
            Expectation::RowCount { min, max, .. } => check_row_count(&rows, *min, *max),
            Expectation::Cell {
                series,
                equals,
                contains,
                ..
            } => check_cell(t, &rows, series, equals.as_deref(), contains.as_deref()),
            Expectation::Invariant {
                name, series, of, ..
            } => check_invariant(t, &rows, name, series, of),
        }
    }
}

/// Exact per-row equality: the invariant kind's engine. Non-numeric
/// and NaN cells are violations in their own right — an invariant that
/// cannot be evaluated has already failed.
fn check_invariant(t: &Table, rows: &[usize], name: &str, series: &str, of: &Of) -> Vec<Violation> {
    let mut out = Vec::new();
    let sc = match series_col(t, series) {
        Ok(c) => c,
        Err(v) => return vec![v],
    };
    let oc = match of {
        Of::Series(o) => match series_col(t, o) {
            Ok(c) => Some(c),
            Err(v) => return vec![v],
        },
        Of::Value(_) => None,
    };
    for &r in rows {
        let a = match numeric(t, r, sc) {
            Ok(v) => v,
            Err(v) => {
                out.push(v);
                continue;
            }
        };
        let b = match (of, oc) {
            (Of::Value(v), _) => *v,
            (Of::Series(_), Some(c)) => match numeric(t, r, c) {
                Ok(v) => v,
                Err(v) => {
                    out.push(v);
                    continue;
                }
            },
            _ => unreachable!(),
        };
        // Exact comparison on purpose; NaN on either side violates
        // (NaN != anything, including itself).
        if a != b {
            out.push(Violation::new(format!(
                "invariant `{name}` broken at row `{}`: `{series}` = {a} but expected {b}",
                t.cell(r, 0)
            )));
        }
    }
    out
}

/// Column lookup as a violation (the satellite "unknown series" case).
fn series_col(t: &Table, series: &str) -> Result<usize, Violation> {
    t.col(series)
        .ok_or_else(|| Violation::new(format!("unknown series `{series}` (have: {})", cols(t))))
}

/// Numeric cell or a violation naming the row and the offending text.
fn numeric(t: &Table, row: usize, col: usize) -> Result<f64, Violation> {
    t.num(row, col).ok_or_else(|| {
        Violation::new(format!(
            "row `{}`: cell `{}` in column `{}` is not numeric",
            t.cell(row, 0),
            t.cell(row, col),
            t.columns[col]
        ))
    })
}

fn check_wins(
    t: &Table,
    rows: &[usize],
    series: &str,
    over: &str,
    better: Better,
    min_factor: f64,
) -> Vec<Violation> {
    let (sc, oc) = match (series_col(t, series), series_col(t, over)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => return [a.err(), b.err()].into_iter().flatten().collect(),
    };
    let mut out = Vec::new();
    for &r in rows {
        let (a, b) = match (numeric(t, r, sc), numeric(t, r, oc)) {
            (Ok(a), Ok(b)) => (a, b),
            (a, b) => {
                out.extend([a.err(), b.err()].into_iter().flatten());
                continue;
            }
        };
        let factor = match better {
            Better::Lower => b / a,
            Better::Higher => a / b,
        };
        // NaN (e.g. 0/0) must count as a violation, not a silent pass.
        if factor.is_nan() || factor < min_factor {
            out.push(Violation::new(format!(
                "row `{}`: `{series}` = {a} vs `{over}` = {b} -> factor {factor:.3} < required {min_factor}",
                t.cell(r, 0)
            )));
        }
    }
    out
}

fn check_crossover(
    t: &Table,
    rows: &[usize],
    between: &(String, String),
    near: f64,
    tol: f64,
) -> Vec<Violation> {
    let (ac, bc) = match (series_col(t, &between.0), series_col(t, &between.1)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => return [a.err(), b.err()].into_iter().flatten().collect(),
    };
    let mut prev_sign: Option<f64> = None;
    for &r in rows {
        let (a, b) = match (numeric(t, r, ac), numeric(t, r, bc)) {
            (Ok(a), Ok(b)) => (a, b),
            (a, b) => return [a.err(), b.err()].into_iter().flatten().collect(),
        };
        let d = a - b;
        let sign = if d == 0.0 { 0.0 } else { d.signum() };
        if let Some(p) = prev_sign {
            if sign != 0.0 && p != 0.0 && sign != p {
                // First sign change: the crossover key is this row's.
                let key = match t.key_num(r) {
                    Some(k) => k,
                    None => {
                        return vec![Violation::new(format!(
                            "row `{}`: non-numeric key at the crossover",
                            t.cell(r, 0)
                        ))]
                    }
                };
                if (key - near).abs() > tol {
                    return vec![Violation::new(format!(
                        "first crossover of `{}` and `{}` is at key {key}, expected within {tol} of {near}",
                        between.0, between.1
                    ))];
                }
                return Vec::new();
            }
        }
        if sign != 0.0 {
            prev_sign = Some(sign);
        }
    }
    vec![Violation::new(format!(
        "`{}` and `{}` never cross (expected a crossover near key {near})",
        between.0, between.1
    ))]
}

fn check_monotonic(
    t: &Table,
    rows: &[usize],
    series: &str,
    direction: Direction,
    strict: bool,
) -> Vec<Violation> {
    let sc = match series_col(t, series) {
        Ok(c) => c,
        Err(v) => return vec![v],
    };
    let mut out = Vec::new();
    let mut prev: Option<(usize, f64)> = None;
    for &r in rows {
        let v = match numeric(t, r, sc) {
            Ok(v) => v,
            Err(e) => {
                out.push(e);
                continue;
            }
        };
        if let Some((pr, pv)) = prev {
            let ok = match (direction, strict) {
                (Direction::Increasing, false) => v >= pv,
                (Direction::Increasing, true) => v > pv,
                (Direction::Decreasing, false) => v <= pv,
                (Direction::Decreasing, true) => v < pv,
            };
            if !ok {
                out.push(Violation::new(format!(
                    "`{series}` is not {}: {pv} at row `{}` -> {v} at row `{}`",
                    match direction {
                        Direction::Increasing => "increasing",
                        Direction::Decreasing => "decreasing",
                    },
                    t.cell(pr, 0),
                    t.cell(r, 0)
                )));
            }
        }
        prev = Some((r, v));
    }
    out
}

fn check_within(
    t: &Table,
    rows: &[usize],
    series: &str,
    of: &Of,
    max_factor: f64,
) -> Vec<Violation> {
    let sc = match series_col(t, series) {
        Ok(c) => c,
        Err(v) => return vec![v],
    };
    let oc = match of {
        Of::Series(o) => match series_col(t, o) {
            Ok(c) => Some(c),
            Err(v) => return vec![v],
        },
        Of::Value(_) => None,
    };
    let mut out = Vec::new();
    for &r in rows {
        let a = match numeric(t, r, sc) {
            Ok(v) => v,
            Err(e) => {
                out.push(e);
                continue;
            }
        };
        let b = match (of, oc) {
            (Of::Value(v), _) => *v,
            (_, Some(c)) => match numeric(t, r, c) {
                Ok(v) => v,
                Err(e) => {
                    out.push(e);
                    continue;
                }
            },
            _ => unreachable!(),
        };
        if a <= 0.0 || b <= 0.0 {
            out.push(Violation::new(format!(
                "row `{}`: within_factor needs positive values, got {a} and {b}",
                t.cell(r, 0)
            )));
            continue;
        }
        let ratio = (a / b).max(b / a);
        if ratio > max_factor {
            out.push(Violation::new(format!(
                "row `{}`: `{series}` = {a} is {ratio:.3}x away from {b}, allowed {max_factor}x",
                t.cell(r, 0)
            )));
        }
    }
    out
}

fn check_anomaly(
    t: &Table,
    rows: &[usize],
    series: &str,
    at: f64,
    jump: Jump,
    min_jump: f64,
) -> Vec<Violation> {
    let sc = match series_col(t, series) {
        Ok(c) => c,
        Err(v) => return vec![v],
    };
    let pos = rows.iter().position(|&r| t.key_num(r) == Some(at));
    let Some(pos) = pos else {
        return vec![Violation::new(format!(
            "no selected row has key {at} (anomaly site missing)"
        ))];
    };
    if pos == 0 {
        return vec![Violation::new(format!(
            "key {at} is the first selected row; an anomaly needs a preceding row to jump from"
        ))];
    }
    let (r_at, r_prev) = (rows[pos], rows[pos - 1]);
    let (v_at, v_prev) = match (numeric(t, r_at, sc), numeric(t, r_prev, sc)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => return [a.err(), b.err()].into_iter().flatten().collect(),
    };
    if v_prev <= 0.0 {
        return vec![Violation::new(format!(
            "row `{}`: anomaly baseline must be positive, got {v_prev}",
            t.cell(r_prev, 0)
        ))];
    }
    let ratio = v_at / v_prev;
    let ok = match jump {
        Jump::Up => ratio >= min_jump,
        Jump::Down => ratio <= 1.0 / min_jump,
    };
    if ok {
        Vec::new()
    } else {
        vec![Violation::new(format!(
            "`{series}` moves {v_prev} -> {v_at} at key {at} (ratio {ratio:.3}); expected a {} jump of >= {min_jump}x",
            match jump {
                Jump::Up => "upward",
                Jump::Down => "downward",
            }
        ))]
    }
}

fn check_bound(
    t: &Table,
    rows: &[usize],
    series: &str,
    min: Option<f64>,
    max: Option<f64>,
) -> Vec<Violation> {
    let sc = match series_col(t, series) {
        Ok(c) => c,
        Err(v) => return vec![v],
    };
    let mut out = Vec::new();
    for &r in rows {
        let v = match numeric(t, r, sc) {
            Ok(v) => v,
            Err(e) => {
                out.push(e);
                continue;
            }
        };
        if let Some(lo) = min {
            if v < lo {
                out.push(Violation::new(format!(
                    "row `{}`: `{series}` = {v} below minimum {lo}",
                    t.cell(r, 0)
                )));
            }
        }
        if let Some(hi) = max {
            if v > hi {
                out.push(Violation::new(format!(
                    "row `{}`: `{series}` = {v} above maximum {hi}",
                    t.cell(r, 0)
                )));
            }
        }
    }
    out
}

fn check_row_count(rows: &[usize], min: Option<usize>, max: Option<usize>) -> Vec<Violation> {
    let n = rows.len();
    let mut out = Vec::new();
    if let Some(lo) = min {
        if n < lo {
            out.push(Violation::new(format!(
                "selection has {n} rows, expected at least {lo}"
            )));
        }
    }
    if let Some(hi) = max {
        if n > hi {
            out.push(Violation::new(format!(
                "selection has {n} rows, expected at most {hi}"
            )));
        }
    }
    out
}

fn check_cell(
    t: &Table,
    rows: &[usize],
    series: &str,
    equals: Option<&str>,
    contains: Option<&str>,
) -> Vec<Violation> {
    let sc = match series_col(t, series) {
        Ok(c) => c,
        Err(v) => return vec![v],
    };
    let mut out = Vec::new();
    for &r in rows {
        let cell = t.cell(r, sc);
        let ok = match (equals, contains) {
            (Some(e), _) => cell == e,
            (_, Some(c)) => cell.contains(c),
            _ => unreachable!(),
        };
        if !ok {
            out.push(Violation::new(format!(
                "row `{}`: cell `{cell}` in `{series}` does not {} `{}`",
                t.cell(r, 0),
                if equals.is_some() { "equal" } else { "contain" },
                equals.or(contains).unwrap_or_default()
            )));
        }
    }
    out
}
