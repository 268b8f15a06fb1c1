//! Engine- and session-level observability counters.
//!
//! Engine-wide counters are lock-free atomics shared by every worker and
//! read by [`crate::Engine::stats`] without stopping traffic. Per-session
//! counters live inside the owning worker and are fetched over the same
//! queue the session's batches use, so a stats read also measures queue
//! health.
//!
//! Every counter is declared once, as one row of the table at the bottom
//! of this file. A row names the counter, its source, and its doc in
//! [`EngineStats`] and/or [`SessionStats`]; engine rows also give the
//! cluster roll-up's merge rule (`sum`, or `max` for a high-water mark).
//! The sources are:
//!
//! - `own`: the engine bumps the counter at its own site;
//! - `committed`: committed work only, added on a batch's commit arm
//!   (like [`crate::BatchOutcome`]'s waves and assignments);
//! - `net.stats` / `net.par_stats`: mirrored from the session network's
//!   [`stem_core::Stats`] / [`stem_core::ParStats`] field of the same
//!   name. The engine adds each submitted batch's movement whatever its
//!   outcome, so the engine-wide reading is the sum over the sessions;
//! - `store`: overlaid from the store by [`crate::Engine::stats`] (its
//!   atomic stays 0);
//! - `gauge`: session-only, read from the network when the session's
//!   stats are fetched.
//!
//! The table generates the atomics and their snapshot, both stats
//! structs, [`EngineStats::absorb`], the network-delta fold and the
//! field-order visitor the wire codec walks. Adding a counter is one row
//! plus its increment site.

use std::sync::atomic::{AtomicU64, Ordering};

use stem_core::Network;

/// Upper bounds (exclusive, in microseconds) of the coarse batch-latency
/// buckets; the final bucket is unbounded. Latency is measured from
/// enqueue to reply, so it includes queue wait.
pub const LATENCY_BUCKET_BOUNDS_US: [u64; 6] = [50, 200, 1_000, 5_000, 20_000, 100_000];

/// Number of latency buckets (the bounds plus one overflow bucket).
pub const N_LATENCY_BUCKETS: usize = LATENCY_BUCKET_BOUNDS_US.len() + 1;

/// One field of a stats snapshot, as [`EngineStats::fields_mut`] and
/// [`SessionStats::fields_mut`] yield it.
#[derive(Debug)]
pub enum StatField<'a> {
    /// A counter, gauge or latency bucket.
    Count(&'a mut u64),
    /// A flag ([`SessionStats::quarantined`]).
    Flag(&'a mut bool),
}

impl Counters {
    /// Raises the queue-depth high-water mark to at least `depth`.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_depth_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    /// Files one batch latency into its coarse bucket.
    pub fn observe_latency_us(&self, us: u64) {
        let ix = LATENCY_BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| us < bound)
            .unwrap_or(N_LATENCY_BUCKETS - 1);
        self.latency_buckets[ix].fetch_add(1, Ordering::Relaxed);
    }

    /// [`Counters::snapshot`] that also resets the queue-depth high-water
    /// mark: the returned snapshot carries the mark as of the read, and
    /// subsequent observations rebuild it from zero. Atomic (`swap`), so
    /// depths observed concurrently with the reset are never lost — they
    /// either land in this snapshot or seed the next epoch.
    pub fn snapshot_and_reset_queue_hwm(&self) -> EngineStats {
        let mut s = self.snapshot();
        s.queue_depth_hwm = self.queue_depth_hwm.swap(0, Ordering::Relaxed);
        s
    }
}

/// Folds one counter into another by its merge rule: counters sum,
/// high-water marks take the max.
macro_rules! merge {
    (sum, $into:expr, $from:expr) => {
        $into += $from
    };
    (max, $into:expr, $from:expr) => {
        $into = $into.max($from)
    };
}

/// Expands the counter table. The first arm sorts the rows into the
/// engine, session and network-mirrored lists (each in table order, which
/// is also the wire order); the `@emit` arm generates the code.
macro_rules! stats_table {
    (@emit
        engine [$( ($e:ident $merge:ident $(#[$edoc:meta])*) )*]
        session [$( ($s:ident $(#[$sdoc:meta])*) )*]
        network [$( ($n:ident $method:ident) )*]
    ) => {
        /// Lock-free engine-wide counters, updated by workers: one atomic
        /// per [`EngineStats`] row.
        #[derive(Debug, Default)]
        pub(crate) struct Counters {
            $( $(#[$edoc])* pub $e: AtomicU64, )*
            pub latency_buckets: [AtomicU64; N_LATENCY_BUCKETS],
        }

        impl Counters {
            pub fn snapshot(&self) -> EngineStats {
                EngineStats {
                    $( $e: self.$e.load(Ordering::Relaxed), )*
                    latency_buckets: std::array::from_fn(|i| {
                        self.latency_buckets[i].load(Ordering::Relaxed)
                    }),
                }
            }

            /// Adds how far `net`'s mirrored counters moved since `before`.
            pub fn fold_network(&self, before: &NetworkCounters, net: &Network) {
                $( self.$n.fetch_add(
                    net.$method().$n.saturating_sub(before.$n),
                    Ordering::Relaxed,
                ); )*
            }
        }

        /// The network-mirrored counters of one network at one instant.
        pub(crate) struct NetworkCounters {
            $( $n: u64, )*
        }

        impl NetworkCounters {
            pub fn read(net: &Network) -> NetworkCounters {
                NetworkCounters { $( $n: net.$method().$n, )* }
            }
        }

        /// Point-in-time snapshot of the engine-wide counters
        /// ([`crate::Engine::stats`]).
        ///
        /// The counters mirrored from the session networks (plan, cone and
        /// domain counters) count every submitted batch, committed or
        /// rolled back: each equals the sum of the [`SessionStats`]
        /// readings of the sessions the batches ran in. Records applied by
        /// crash recovery or replica replay are not counted. Waves and
        /// assignments count committed work only.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct EngineStats {
            $( $(#[$edoc])* pub $e: u64, )*
            /// Batch latency histogram; bucket `i` counts batches with
            /// enqueue-to-reply latency under [`LATENCY_BUCKET_BOUNDS_US`]`[i]` µs
            /// (last bucket: everything slower).
            pub latency_buckets: [u64; N_LATENCY_BUCKETS],
        }

        impl EngineStats {
            /// Folds another engine's snapshot into this one — the cluster
            /// tier's per-shard roll-up. Counters add; the queue-depth
            /// high-water mark takes the max (it is a mark, not a volume);
            /// latency buckets add elementwise.
            pub fn absorb(&mut self, other: &EngineStats) {
                $( merge!($merge, self.$e, other.$e); )*
                for (mine, theirs) in self.latency_buckets.iter_mut().zip(other.latency_buckets) {
                    *mine += theirs;
                }
            }

            /// Every field in declaration order, latency buckets last — the
            /// layout of the server's `Stats` reply.
            pub fn fields_mut(&mut self) -> impl Iterator<Item = StatField<'_>> {
                [$( &mut self.$e, )*]
                    .into_iter()
                    .chain(&mut self.latency_buckets)
                    .map(StatField::Count)
            }
        }

        /// Per-session counters ([`crate::Engine::session_stats`]), maintained
        /// by the owning worker.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct SessionStats {
            $( $(#[$sdoc])* pub $s: u64, )*
            /// Whether the session is quarantined.
            pub quarantined: bool,
        }

        impl SessionStats {
            /// Every field in declaration order, the quarantine flag last —
            /// the layout of the server's `SessionStats` reply.
            pub fn fields_mut(&mut self) -> impl Iterator<Item = StatField<'_>> {
                [$( StatField::Count(&mut self.$s), )* StatField::Flag(&mut self.quarantined)]
                    .into_iter()
            }

            /// Copies the network-mirrored counters from the session's
            /// network.
            pub(crate) fn mirror_network(&mut self, net: &Network) {
                $( self.$n = net.$method().$n; )*
            }
        }
    };
    ($(
        $name:ident: $source:ident $(.$method:ident)? {
            $( engine $merge:ident: $(#[$edoc:meta])* )?
            $( session: $(#[$sdoc:meta])* )?
        }
    )*) => {
        stats_table!(@emit
            engine [$( $( ($name $merge $(#[$edoc])*) )? )*]
            session [$( $( ($name $(#[$sdoc])*) )? )*]
            network [$( $( ($name $method) )? )*]
        );
    };
}

stats_table! {
    batches: own {
        engine sum:
            /// Batches processed (committed + rolled back + refused).
        session:
            /// Batches processed for this session.
    }
    batches_ok: own {
        engine sum:
            /// Batches committed.
        session:
            /// Batches committed.
    }
    violations: own {
        engine sum:
            /// Batches rolled back on a constraint violation (includes step-budget
            /// aborts).
        session:
            /// Batches rolled back on violation.
    }
    rollbacks: own {
        engine sum:
            /// Rollbacks performed (violations + panics).
    }
    panics: own {
        engine sum:
            /// Batches that panicked (each also quarantined its session).
        session:
            /// Batches rolled back after a panic.
    }
    waves: committed {
        engine sum:
            /// Propagation waves (cycles) run across all sessions.
        session:
            /// Propagation waves run on behalf of committed work.
    }
    assignments: committed {
        engine sum:
            /// Variable assignments performed across all sessions.
        session:
            /// Assignments performed by committed work.
    }
    sessions_created: own {
        engine sum:
            /// Sessions materialised in workers.
    }
    sessions_quarantined: own {
        engine sum:
            /// Quarantine events.
    }
    backpressure_rejections: own {
        engine sum:
            /// `try_submit` calls refused because a queue was full.
    }
    queue_depth_hwm: own {
        engine max:
            /// Highest observed per-worker queue depth (queued + being submitted).
    }
    n_variables: gauge {
        session:
            /// Variables currently in the session's network.
    }
    n_constraints: gauge {
        session:
            /// Active constraints currently in the session's network.
    }
    net_snapshots: gauge {
        session:
            /// Times the session's network took a full `snapshot()`. The engine
            /// rolls every batch back through the change journal, so this stays
            /// 0; a non-zero reading means an O(network) copy crept back in.
    }
    net_clones: gauge {
        session:
            /// Times the session's network was cloned — 0 for the same reason.
    }
    plan_compiles: net.stats {
        engine sum:
            /// Propagation plans compiled across all sessions (including
            /// uncompilable verdicts).
        session:
            /// Propagation plans this session's network has compiled (including
            /// uncompilable verdicts).
    }
    plan_cache_hits: net.stats {
        engine sum:
            /// `set`s served by a cached propagation plan across all sessions.
        session:
            /// `set`s this session served from a cached propagation plan.
    }
    plan_cache_invalidations: net.stats {
        engine sum:
            /// Cached plans discarded after structural edits, across all sessions.
        session:
            /// Cached plans this session discarded after structural edits.
    }
    plan_replays_parallel: net.par_stats {
        engine sum:
            /// Plan replays committed through the parallel cone path, across all
            /// sessions (0 unless [`crate::EngineConfig::propagation_threads`]
            /// exceeds 1). Every cache hit on a thread-enabled session lands in
            /// exactly one of this counter or [`EngineStats::parallel_fallbacks`].
        session:
            /// Plan replays this session committed through the parallel cone
            /// path. Reconciles with [`SessionStats::plan_cache_hits`]: on a
            /// thread-enabled session every cached replay counts in exactly one
            /// of this counter or [`SessionStats::parallel_fallbacks`].
    }
    cones_executed: net.par_stats {
        engine sum:
            /// Cones executed by committed parallel replays, across all sessions
            /// (every parallel replay counts ≥ 2).
        session:
            /// Cones executed by this session's committed parallel replays.
    }
    cones_stolen: net.par_stats {
        engine sum:
            /// Pool tasks claimed by a worker other than the one they were dealt
            /// to (work stealing), summed over committed parallel replays.
            /// Schedule-dependent — excluded from determinism digests.
        session:
            /// Pool tasks stolen during this session's committed parallel
            /// replays. Schedule-dependent; diagnostic only.
    }
    parallel_fallbacks: net.par_stats {
        engine sum:
            /// Cached replays that ran sequentially despite an enabled worker
            /// pool: plan below the partition threshold, single connected
            /// component, kernel-less kind, or a parallel attempt that aborted
            /// (overwrite denial / violation) into the sequential rerun.
        session:
            /// Cached replays that ran sequentially despite the worker pool
            /// (below-threshold plan, single cone, kernel-less kind, or an
            /// aborted parallel attempt).
    }
    recoveries: own {
        engine sum:
            /// Sessions reconstructed from the store at [`crate::Engine::open`]
            /// (snapshot image + log-tail replay).
    }
    segments_ingested: own {
        engine sum:
            /// Shipped WAL segments ingested by this engine in replica mode
            /// ([`crate::Engine::ingest_segment`]).
    }
    records_replayed: own {
        engine sum:
            /// WAL records applied during replica segment ingestion (skips and
            /// anomalies not included).
    }
    dedup_skips: own {
        engine sum:
            /// Keyed batches acknowledged without re-applying because their
            /// idempotence key was at or below the session's high-water mark
            /// ([`crate::Engine::submit_keyed`]) — each one is a client resubmit
            /// that duplicate suppression absorbed.
    }
    domain_tightenings: net.stats {
        engine sum:
            /// Domain tightenings landed by domain propagators across all
            /// sessions: interval/finite-set writes that strictly narrowed a
            /// variable's domain.
        session:
            /// Domain tightenings this session's propagators landed (cumulative,
            /// mirroring the network's counter).
    }
    subsumed_pruned: net.stats {
        engine sum:
            /// Constraint activations pruned because the constraint was
            /// runtime-marked subsumed (entailed) at the time, across all
            /// sessions — agenda dispatch and compiled-plan replay alike.
        session:
            /// Activations this session pruned via runtime subsumption marks.
    }
    wipeouts: net.stats {
        engine sum:
            /// Domain wipeouts (a propagator emptied a domain, aborting and
            /// rolling back its batch) across all sessions.
        session:
            /// Domain wipeouts this session's propagators raised.
    }
    wal_appends: store {
        engine sum:
            /// Write-ahead log records appended since the store was opened
            /// (filled from the store by [`crate::Engine::stats`]; 0 on a
            /// non-durable engine).
        session:
            /// WAL records this session's committed batches appended — the
            /// per-session share of [`EngineStats::wal_appends`], counted by the
            /// owning worker at commit time (0 on non-durable engines; replayed
            /// recovery records are not re-counted).
    }
    wal_bytes: store {
        engine sum:
            /// Write-ahead log bytes appended since the store was opened.
        session:
            /// Frame bytes this session's committed batches appended — the
            /// per-session share of [`EngineStats::wal_bytes`].
    }
    wal_group_syncs: store {
        engine sum:
            /// Group-commit flushes completed (each covering ≥1 commit); 0 unless
            /// the engine runs [`crate::Durability::GroupCommit`].
    }
    snapshots_written: store {
        engine sum:
            /// Snapshot checkpoints written since the store was opened.
    }
}
