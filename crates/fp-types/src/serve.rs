//! Configuration for the continuous serving layer.
//!
//! The serving layer (`fp-honeysite`'s `serve` module) keeps detector
//! workers running behind one bounded intake ring so requests are
//! admitted one at a time, the way a deployed honey site sees them; the
//! batch `ingest_stream` drives the same service over a finished request
//! list. This module holds only the *shape* of that service — the ring's
//! capacity, the commit window and the overflow contract — so `fp-bench`
//! and the benchmark harness can describe a serving topology without
//! depending on the implementation crate.

/// What `submit` does when the intake ring is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Block the submitting caller until a commit makes room. Nothing is
    /// dropped; admission-to-verdict latency absorbs the wait. This is
    /// the benchmark default — a closed loop needs every admitted
    /// request to reach a verdict.
    Block,
    /// Shed the request: `submit` returns immediately with a shed
    /// outcome, before enriching it, and bumps the `serve_requests_shed`
    /// counter. This is the flash-crowd posture — bounded latency,
    /// explicit loss.
    Shed,
}

/// Ring shape and backpressure contract for one serving session.
///
/// All fields are plain `Copy` data so configs embed in bench drivers
/// and test fixtures without ceremony.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// State shards per route: IP-scoped and cookie-scoped detectors
    /// each get this many forks. Routing keys on
    /// [`shard_for`](crate::shard_for) of each detector's state anchor,
    /// so flag identity with the sequential path holds at any shard
    /// count. The thread count does not follow it: the service runs
    /// `min(shards, available_parallelism)` workers, and worker `i`
    /// hosts both routes' forks of every shard `s` with `s % workers == i`.
    pub shards: usize,
    /// Capacity of the intake ring, in requests: admitted and enriched
    /// on the caller's thread, not yet committed. This is what the
    /// overflow policy applies to: the sole intake gate, sized for the
    /// burst the service will absorb before backpressure.
    pub ingress_capacity: usize,
    /// The commit window, in requests: a worker reads only the ring's
    /// `shard_capacity` oldest uncommitted requests, so at most this
    /// many are taken in one batch, or decided on a route and waiting to
    /// commit. A worker that has read its whole window waits for the
    /// oldest request to commit.
    pub shard_capacity: usize,
    /// What `submit` does when the intake ring is full.
    pub overflow: OverflowPolicy,
    /// Start with the workers held: submitted requests accumulate in the
    /// ring until `resume()` releases them. Lets tests and the burst
    /// bench driver fill the ring deterministically (submit exactly
    /// `ingress_capacity`, watch the rest shed) instead of racing the
    /// drain. Under `Block`, a held service's ring fills and `submit`
    /// then waits for a `resume()` that only another thread can call.
    pub start_paused: bool,
}

impl ServeConfig {
    /// A serving config with the given shard count and generous
    /// defaults: a 4096-request intake ring and a 1024-request commit
    /// window (the benchmark's serving shape, and what `ingest_stream`
    /// runs with), blocking overflow, not paused.
    pub fn with_shards(shards: usize) -> ServeConfig {
        ServeConfig {
            shards: shards.max(1),
            ingress_capacity: 4096,
            shard_capacity: 1024,
            overflow: OverflowPolicy::Block,
            start_paused: false,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig::with_shards(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_shards_clamps_zero() {
        assert_eq!(ServeConfig::with_shards(0).shards, 1);
    }
}
