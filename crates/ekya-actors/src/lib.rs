#![warn(missing_docs)]

//! # ekya-actors — actor runtime substrate for the Ekya reproduction
//!
//! The paper implements Ekya's modules — scheduler, micro-profiler and
//! per-stream training/inference jobs — as long-running Ray actors (§5).
//! This crate is the dependency-light Rust stand-in: typed mailboxes over
//! crossbeam channels on OS threads (CPU-bound work does not belong on an
//! async runtime), `ask`/`tell` messaging, request queueing while an
//! actor is busy (the §5 model-reload behaviour), and supervised restart
//! on panic (the §5 "failure recovery").
//!
//! Every mailbox is bounded: both constructors, [`spawn_bounded`] and
//! [`spawn_supervised_bounded`], take a capacity, so a slow consumer (a
//! trainer hogging its thread) blocks its producers instead of growing
//! a queue without limit. There is no other kind of mailbox to pick by
//! mistake.
//!
//! Implemented: typed actors, blocking and deferred ask, ordered
//! bounded mailboxes, panic supervision with state rebuild. Omitted:
//! distribution across machines, actor migration — neither is needed
//! for a single edge server.

pub mod actor;
pub mod supervisor;

pub use actor::{spawn_bounded, Actor, ActorError, ActorHandle, Address, Pending};
pub use supervisor::{spawn_supervised_bounded, SupervisedHandle, SupervisorStats};
