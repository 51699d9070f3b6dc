//! # mvcc-workloads — workload generators and measurement harness
//!
//! Everything the paper's evaluation (§7) needs to drive a data structure:
//!
//! * [`zipf`] — Zipfian key distribution (the YCSB default, θ = 0.99 skew)
//!   with the Gray et al. rejection-free sampler, plus a scrambled variant
//!   so hot keys spread across the key space;
//! * [`ycsb`] — the YCSB-A/B/C operation mixes (update-heavy 50/50,
//!   read-heavy 95/5, read-only) used in Figure 7;
//! * [`corpus`] — a synthetic document corpus with Zipf-distributed term
//!   frequencies and document lengths, substituting for the Wikipedia dump
//!   in the Table 3 inverted-index experiment (see DESIGN.md);
//! * [`harness`] — time-boxed multi-threaded throughput measurement with
//!   per-thread counters and Mop/s reporting.

pub mod corpus;
pub mod harness;
pub mod ycsb;
pub mod zipf;

pub use corpus::{Corpus, CorpusConfig, Document};
pub use harness::{run_for, ThroughputReport};
pub use ycsb::{Mix, Op, YcsbConfig, YcsbGenerator};
pub use zipf::{ScrambledZipf, Zipf};
