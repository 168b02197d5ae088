//! # elanib-nic — network interface models
//!
//! Two NICs, one comparison. This crate models the architectural
//! differences §3 of the paper argues are decisive:
//!
//! | property | [`hca::Hca`] (4X InfiniBand) | [`elan::ElanNet`] (Elan-4) |
//! |---|---|---|
//! | interface style | queue pairs + RDMA (verbs) | Tports (tagged two-sided) |
//! | connections | per-peer QPs at init | connectionless |
//! | memory registration | explicit + pin-down cache | implicit (NIC MMU) |
//! | MPI matching | host software | NIC thread processor |
//! | independent progress | none (host must poll) | yes (NIC completes all) |
//! | host per-message cost | copy + WQE + doorbell + poll | one PIO |
//!
//! The common substrate — the overlapped DMA/wire/DMA pipeline and the
//! per-pair ordering guarantee — lives in [`transfer`].

pub mod common;
pub mod elan;
pub mod hca;
pub mod params;
pub mod regcache;
pub mod roce;
pub mod transfer;

pub use common::{no_bytes, Bytes, SerialEngine};
pub use elan::{ElanNet, ElanPort, TportArrival, TportHeader, TportRecvHandle, TportSel};
pub use hca::{Hca, HcaPort, IbNet, PostHandle};
pub use params::{ElanParams, HcaParams};
pub use regcache::{RegCache, RegionId};
pub use roce::{RoceCc, RoceCcStats, RoceMode, RoceParams};
pub use transfer::{RecoveryPolicy, TransportError};
