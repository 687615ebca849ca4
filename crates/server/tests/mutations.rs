//! Mutation e2e tests: seeded INSERT/DELETE streams against a real
//! `cqcountd`, every incremental count cross-checked against a
//! from-scratch brute-force recount on a mirror database driven through
//! the same `cqcount-relational` mutation API. Covers the acceptance
//! bars: zero parity mismatches on acyclic (maintained) and width-2
//! cyclic (invalidate-only) workloads, surgical cache invalidation that
//! spares unrelated queries and every cached plan, and exact fault-event
//! replay of a mutation stream under the chaos profile.
//!
//! Tier-1 runs a fast subset of each stream; the `exhaustive-tests`
//! feature widens them to the full 1k-op acceptance streams.

use cqcount_arith::prng::Rng;
use cqcount_core::count_brute_force;
use cqcount_query::{parse_database, parse_program, ConjunctiveQuery};
use cqcount_relational::Database;
use cqcount_server::faults::FaultProfile;
use cqcount_server::protocol::{CacheTier, ErrorCode, MutationOp};
use cqcount_server::{
    serve, Client, ClientError, ClientOptions, DurabilityPolicy, ServerConfig, ServerHandle,
};

/// Ops per stream: the acceptance criterion's 1k under `exhaustive-tests`,
/// a fast-but-representative prefix in tier-1.
fn stream_len(full: usize, fast: usize) -> usize {
    if cfg!(feature = "exhaustive-tests") {
        full
    } else {
        fast
    }
}

fn start(config: ServerConfig, facts: &str) -> ServerHandle {
    let db = parse_database(facts).unwrap();
    serve(config, vec![("main".into(), db)]).expect("bind loopback")
}

fn parse_query(facts: &str, query: &str) -> ConjunctiveQuery {
    let (q, _) = parse_program(&format!("{facts}\n{query}")).unwrap();
    q.unwrap()
}

/// `cqcount_delta_builds_total` from the server's metrics exposition.
fn delta_builds(client: &mut Client) -> u64 {
    let text = client.metrics().unwrap();
    text.lines()
        .find_map(|l| l.strip_prefix("cqcount_delta_builds_total "))
        .expect("cqcount_delta_builds_total in METRICS")
        .parse()
        .unwrap()
}

fn op(insert: bool, rel: &str, values: &[&str]) -> MutationOp {
    MutationOp {
        insert,
        rel: rel.into(),
        values: values.iter().map(|v| (*v).to_owned()).collect(),
    }
}

/// One relation schema in a random stream: name, arity, and the value
/// domain size. Small domains make duplicate inserts and absent deletes
/// common, which is exactly what exercises the dedup index and the
/// effective-op accounting.
struct RelSchema {
    name: &'static str,
    arity: usize,
    domain: u64,
}

/// Draws one random op, applies it to the server and to the mirror, and
/// checks the receipt agrees with the mirror about whether the tuple
/// actually changed.
fn random_op(
    rng: &mut Rng,
    rels: &[RelSchema],
    client: &mut Client,
    mirror: &mut Database,
) -> bool {
    let rel = &rels[rng.below(rels.len() as u64) as usize];
    let insert = rng.below(3) < 2; // insert-leaning so the instance grows
    let values: Vec<String> = (0..rel.arity)
        .map(|_| format!("v{}", rng.below(rel.domain)))
        .collect();
    let refs: Vec<&str> = values.iter().map(String::as_str).collect();
    let receipt = if insert {
        client.insert("main", rel.name, &refs).unwrap()
    } else {
        client.delete("main", rel.name, &refs).unwrap()
    };
    let local = if insert {
        mirror.insert_tuple(rel.name, &refs).unwrap()
    } else {
        mirror.delete_tuple(rel.name, &refs).unwrap()
    };
    assert_eq!(
        receipt.changed,
        local as u64,
        "server and mirror disagree about op effectiveness: {} {rel_name}({values:?})",
        if insert { "insert" } else { "delete" },
        rel_name = rel.name,
    );
    assert_eq!(
        receipt.mutation_seq,
        mirror.mutation_seq(),
        "mutation_seq diverged"
    );
    local
}

/// Acyclic stream: the query is full and α-acyclic, so the first cold
/// count attaches a pending state, the first mutation builds its materialization, and
/// every mutation patches it along the bag path. From the second count
/// on, every count must be a cache hit (the maintained count, refreshed
/// in place) *and* exactly equal the brute-force recount of the mirror.
#[test]
fn acyclic_mutation_stream_keeps_counts_exact_and_warm() {
    let facts = "r(v0, v1). r(v1, v2). s(v1, v0). s(v2, v2). t(v2). t(v0).";
    let query = "ans(A, B, C) :- r(A, B), s(B, C), t(C).";
    let handle = start(ServerConfig::default(), facts);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let mut mirror = parse_database(facts).unwrap();
    let q = parse_query(facts, query);

    let rels = [
        RelSchema {
            name: "r",
            arity: 2,
            domain: 6,
        },
        RelSchema {
            name: "s",
            arity: 2,
            domain: 6,
        },
        RelSchema {
            name: "t",
            arity: 1,
            domain: 6,
        },
    ];

    // The first count is cold and registers the query for maintenance.
    let first = client.count("main", query, 0).unwrap();
    assert_eq!(first.cached, CacheTier::Cold);
    assert_eq!(first.value, count_brute_force(&q, &mirror).to_string());

    let mut rng = Rng::seed_from_u64(0xACC1C);
    for i in 0..stream_len(1000, 150) {
        random_op(&mut rng, &rels, &mut client, &mut mirror);
        let reply = client.count("main", query, 0).unwrap();
        assert_eq!(
            reply.value,
            count_brute_force(&q, &mirror).to_string(),
            "op {i}: incremental count diverged from brute-force recount"
        );
        assert_eq!(
            reply.cached,
            CacheTier::CountWarm,
            "op {i}: a maintained query must be served from its refreshed count"
        );
    }

    // The whole stream was absorbed incrementally: the delta path ran and
    // never once fell back to dropping the materialization.
    let stats = client.stats().unwrap();
    assert!(stats.mutations_applied > 0);
    assert!(
        stats.delta_bags_touched > 0,
        "no bags were patched: {stats:?}"
    );
    assert_eq!(stats.delta_fallbacks, 0, "delta fallback on a clean stream");
    handle.shutdown();
}

/// Width-2 cyclic stream (triangle query): not maintainable, so every
/// mutation takes the invalidation path — the next count re-runs under
/// the cached plan and must still match brute force exactly.
#[test]
fn cyclic_mutation_stream_keeps_counts_exact_via_invalidation() {
    let facts = "e(v0, v1). e(v1, v2). e(v2, v0). e(v1, v0).";
    let query = "ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).";
    let handle = start(ServerConfig::default(), facts);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let mut mirror = parse_database(facts).unwrap();
    let q = parse_query(facts, query);

    let rels = [RelSchema {
        name: "e",
        arity: 2,
        domain: 5,
    }];

    assert_eq!(
        client.count("main", query, 0).unwrap().cached,
        CacheTier::Cold
    );

    let mut rng = Rng::seed_from_u64(0xC_2C1C);
    let mut effective_ops = 0u64;
    let mut plan_warm_recounts = 0u64;
    for i in 0..stream_len(1000, 150) {
        let effective = random_op(&mut rng, &rels, &mut client, &mut mirror);
        effective_ops += u64::from(effective);
        let reply = client.count("main", query, 0).unwrap();
        assert_eq!(
            reply.value,
            count_brute_force(&q, &mirror).to_string(),
            "op {i}: post-mutation count diverged from brute-force recount"
        );
        // An effective op invalidates the cached count; the recount runs
        // under the still-cached plan. A no-op leaves the count warm.
        if effective {
            assert_eq!(reply.cached, CacheTier::PlanWarm, "op {i}");
            plan_warm_recounts += 1;
        } else {
            assert_eq!(reply.cached, CacheTier::CountWarm, "op {i}");
        }
    }
    assert!(effective_ops > 0, "the stream never changed the instance");
    assert!(plan_warm_recounts > 0);

    // Plans are data-independent and must survive every mutation: the
    // query was planned exactly once, all recounts hit the plan cache.
    let stats = client.stats().unwrap();
    assert_eq!(stats.plan_misses, 1, "a mutation evicted a plan: {stats:?}");
    assert_eq!(
        stats.delta_bags_touched, 0,
        "cyclic queries are never maintained"
    );
    handle.shutdown();
}

/// Surgical invalidation: a mutation touching relation `r` must leave
/// cached counts over `s` untouched (still count-cache hits), refresh
/// the maintained count over `r` (warm *and* fresh), and force exactly a
/// plan-warm recount for an unmaintainable query over `r`.
#[test]
fn mutation_invalidates_only_dependent_counts_and_never_plans() {
    let facts = "r(a, b). r(b, c). s(a, a). s(b, c). s(c, a).";
    let q_r = "ans(X, Y) :- r(X, Y).";
    let q_s = "ans(X, Y) :- s(X, Y).";
    let q_r_cyclic = "ans(X, Y, Z) :- r(X, Y), r(Y, Z), r(Z, X).";
    let handle = start(ServerConfig::default(), facts);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // Warm all three: q_r is maintained, q_s is independent of r, and the
    // cyclic query over r is cached but not maintainable.
    for q in [q_r, q_s, q_r_cyclic] {
        assert_eq!(client.count("main", q, 0).unwrap().cached, CacheTier::Cold);
        assert_eq!(
            client.count("main", q, 0).unwrap().cached,
            CacheTier::CountWarm
        );
    }
    let s_before = client.count("main", q_s, 0).unwrap();
    let plan_misses_before = client.stats().unwrap().plan_misses;

    let receipt = client.insert("main", "r", &["c", "a"]).unwrap();
    assert_eq!(receipt.changed, 1);

    // s-count: untouched relation, the cache entry survived the sweep.
    let s_after = client.count("main", q_s, 0).unwrap();
    assert_eq!(s_after.cached, CacheTier::CountWarm);
    assert_eq!(s_after.value, s_before.value);

    // r-count: maintained, so the *new* value is already in the cache.
    let r_after = client.count("main", q_r, 0).unwrap();
    assert_eq!(r_after.cached, CacheTier::CountWarm);
    assert_eq!(r_after.value, "3");

    // Cyclic r-query: count invalidated, plan survived — the triangle
    // a→b→c→a now exists (closed by the insert, counted 3 rotations).
    let cyc_after = client.count("main", q_r_cyclic, 0).unwrap();
    assert_eq!(cyc_after.cached, CacheTier::PlanWarm);
    assert_eq!(cyc_after.value, "3");

    // No plan was re-derived anywhere in the episode.
    assert_eq!(client.stats().unwrap().plan_misses, plan_misses_before);
    handle.shutdown();
}

/// A deleted tuple's revival: insert → delete → insert of the same tuple
/// must land on the maintained path with exact counts throughout (the
/// delta layer keeps zero-count rows for exactly this).
#[test]
fn delete_then_reinsert_round_trips_the_maintained_count() {
    let facts = "r(a, b). s(b, c).";
    let query = "ans(X, Y, Z) :- r(X, Y), s(Y, Z).";
    let handle = start(ServerConfig::default(), facts);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    assert_eq!(client.count("main", query, 0).unwrap().value, "1");
    for (expect, op, value) in [
        ("2", "insert", ["b", "d"]),
        ("1", "delete", ["b", "d"]),
        ("2", "insert", ["b", "d"]),
    ] {
        let receipt = if op == "insert" {
            client.insert("main", "s", &value).unwrap()
        } else {
            client.delete("main", "s", &value).unwrap()
        };
        assert_eq!(receipt.changed, 1);
        let reply = client.count("main", query, 0).unwrap();
        assert_eq!(reply.value, expect);
        assert_eq!(reply.cached, CacheTier::CountWarm);
    }
    assert_eq!(client.stats().unwrap().delta_fallbacks, 0);
    handle.shutdown();
}

/// The chaos acceptance bar for mutations: a seeded fault profile, a
/// scripted mutation stream, zero wrong counts, and an exactly replayable
/// (outcomes, fault events) trace. Mutations are never retried — after a
/// transport-errored op the script reconciles its mirror against the
/// server's per-db tuple count (the documented recovery procedure for the
/// non-idempotent opcodes) and goes on.
#[test]
fn chaos_mutation_stream_replays_exactly_with_zero_wrong_counts() {
    fn chaos_profile() -> FaultProfile {
        FaultProfile {
            label: "mutation-chaos",
            io_gap: 24,
            short_weight: 6,
            latency_weight: 2,
            disconnect_weight: 1,
            latency_max_ms: 1,
            worker_panic_p: 0.08,
            cap_trip_p: 0.0,
        }
    }

    fn scripted_run(seed: u64) -> (Vec<String>, Vec<cqcount_server::FaultEvent>) {
        let facts = "r(v0, v1). s(v1, v2).";
        let query = "ans(A, B, C) :- r(A, B), s(B, C).";
        let db = parse_database(facts).unwrap();
        let handle = serve(
            ServerConfig {
                fault_profile: chaos_profile(),
                fault_seed: seed,
                read_timeout_ms: 5_000,
                write_timeout_ms: 5_000,
                ..ServerConfig::default()
            },
            vec![("main".into(), db)],
        )
        .expect("bind loopback");
        let mut client = Client::connect_with(
            handle.local_addr(),
            ClientOptions {
                retries: 8,
                backoff_base_ms: 2,
                io_timeout_ms: 5_000,
                retry_seed: 7,
                ..ClientOptions::default()
            },
        )
        .expect("connect");
        let mut mirror = parse_database(facts).unwrap();
        let q = parse_query(facts, query);
        let rels = [
            RelSchema {
                name: "r",
                arity: 2,
                domain: 4,
            },
            RelSchema {
                name: "s",
                arity: 2,
                domain: 4,
            },
        ];

        let mut rng = Rng::seed_from_u64(seed ^ 0x5EED);
        let mut outcomes = Vec::new();
        for i in 0..stream_len(300, 60) {
            let rel = &rels[rng.below(rels.len() as u64) as usize];
            let insert = rng.below(3) < 2;
            let values: Vec<String> = (0..rel.arity)
                .map(|_| format!("v{}", rng.below(rel.domain)))
                .collect();
            let refs: Vec<&str> = values.iter().map(String::as_str).collect();
            let result = if insert {
                client.insert("main", rel.name, &refs)
            } else {
                client.delete("main", rel.name, &refs)
            };
            match result {
                Ok(receipt) => {
                    let local = if insert {
                        mirror.insert_tuple(rel.name, &refs).unwrap()
                    } else {
                        mirror.delete_tuple(rel.name, &refs).unwrap()
                    };
                    assert_eq!(receipt.changed, local as u64, "op {i} (seed {seed})");
                    outcomes.push(format!("ok:{}", receipt.changed));
                }
                // An injected worker panic rejects the op *before* it
                // applies; a transport fault may have eaten the reply to
                // an op that landed. Either way: reconcile the mirror
                // against the server's tuple count, never guess.
                Err(ClientError::Server { code, .. }) => outcomes.push(format!("err:{code:?}")),
                Err(_) => {
                    let tuples = client
                        .stats()
                        .expect("stats must succeed under retries")
                        .dbs
                        .iter()
                        .find(|d| d.name == "main")
                        .expect("main db")
                        .tuples;
                    if tuples != mirror.total_tuples() as u64 {
                        let landed = if insert {
                            mirror.insert_tuple(rel.name, &refs).unwrap()
                        } else {
                            mirror.delete_tuple(rel.name, &refs).unwrap()
                        };
                        assert!(landed, "reconciliation applied a no-op (seed {seed})");
                    }
                    assert_eq!(tuples, mirror.total_tuples() as u64, "op {i} (seed {seed})");
                    outcomes.push("transport".into());
                }
            }
            // Every fifth op, cross-check the live count against a
            // from-scratch recount of the reconciled mirror.
            if i % 5 == 4 {
                let reply = client.count("main", query, 0).expect("count under retries");
                assert_eq!(
                    reply.value,
                    count_brute_force(&q, &mirror).to_string(),
                    "op {i}: wrong count under chaos (seed {seed})"
                );
                outcomes.push(format!("count:{}", reply.value));
            }
        }
        let events = handle.fault_events();
        handle.shutdown();
        (outcomes, events)
    }

    let (outcomes_a, events_a) = scripted_run(1306);
    let (outcomes_b, events_b) = scripted_run(1306);
    assert_eq!(outcomes_a, outcomes_b, "chaos outcomes must replay exactly");
    assert_eq!(events_a, events_b, "fault events must replay exactly");
    assert!(!events_a.is_empty(), "the chaos profile never bit");
}

const LAZY_FACTS: &str = "r(a, b). r(b, c). s(b, c). s(c, c). t(c). u(a).";
const LAZY_QUERY: &str = "ans(A, B, C) :- r(A, B), s(B, C), t(C).";

/// Counting a maintainable query builds nothing; the first mutation of
/// one of its relations builds its state exactly once, and the recount
/// after it is the patched count. Mutating an unrelated relation builds
/// nothing.
#[test]
fn first_touching_mutation_builds_the_materialization_once() {
    let handle = start(ServerConfig::default(), LAZY_FACTS);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let mut mirror = parse_database(LAZY_FACTS).unwrap();
    let q = parse_query(LAZY_FACTS, LAZY_QUERY);

    let cold = client.count("main", LAZY_QUERY, 0).unwrap();
    assert_eq!(cold.cached, CacheTier::Cold);
    assert_eq!(cold.value, count_brute_force(&q, &mirror).to_string());
    assert_eq!(delta_builds(&mut client), 0, "a cold count built a state");

    // `u` is not in the query: nothing to build, the count stays warm.
    assert_eq!(client.insert("main", "u", &["b"]).unwrap().changed, 1);
    mirror.insert_tuple("u", &["b"]).unwrap();
    assert_eq!(delta_builds(&mut client), 0, "an unrelated mutation built");
    let reply = client.count("main", LAZY_QUERY, 0).unwrap();
    assert_eq!(reply.cached, CacheTier::CountWarm);
    assert_eq!(reply.value, count_brute_force(&q, &mirror).to_string());

    // The first mutation of `t` builds, then patches.
    assert_eq!(client.insert("main", "t", &["b"]).unwrap().changed, 1);
    mirror.insert_tuple("t", &["b"]).unwrap();
    assert_eq!(delta_builds(&mut client), 1);
    let reply = client.count("main", LAZY_QUERY, 0).unwrap();
    assert_eq!(reply.cached, CacheTier::CountWarm);
    assert_eq!(reply.value, count_brute_force(&q, &mirror).to_string());
    assert!(client.stats().unwrap().delta_bags_touched > 0);

    // Later mutations patch the built state; nothing is rebuilt.
    for (rel, values) in [("s", ["c", "b"]), ("r", ["c", "b"])] {
        assert_eq!(client.insert("main", rel, &values).unwrap().changed, 1);
        mirror.insert_tuple(rel, &values).unwrap();
        let reply = client.count("main", LAZY_QUERY, 0).unwrap();
        assert_eq!(reply.cached, CacheTier::CountWarm);
        assert_eq!(reply.value, count_brute_force(&q, &mirror).to_string());
    }
    assert_eq!(delta_builds(&mut client), 1);
    assert_eq!(client.stats().unwrap().delta_fallbacks, 0);
    handle.shutdown();
}

/// A batch whose first op is unrelated and whose second touches the
/// query: the state is built before the batch's first op, so the second
/// op's delta lands on it and the count stays exact.
#[test]
fn batch_of_unrelated_then_touching_op_stays_exact() {
    let handle = start(ServerConfig::default(), LAZY_FACTS);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let mut mirror = parse_database(LAZY_FACTS).unwrap();
    let q = parse_query(LAZY_FACTS, LAZY_QUERY);

    client.count("main", LAZY_QUERY, 0).unwrap();
    let receipt = client
        .mutate(
            "main",
            vec![op(true, "u", &["c"]), op(true, "s", &["a", "c"])],
        )
        .unwrap();
    assert_eq!(receipt.changed, 2);
    mirror.insert_tuple("u", &["c"]).unwrap();
    mirror.insert_tuple("s", &["a", "c"]).unwrap();
    assert_eq!(delta_builds(&mut client), 1);
    let reply = client.count("main", LAZY_QUERY, 0).unwrap();
    assert_eq!(reply.cached, CacheTier::CountWarm);
    assert_eq!(reply.value, count_brute_force(&q, &mirror).to_string());
    handle.shutdown();
}

/// A batch that builds the state and then fails its WAL append rolls
/// back through the built state: the reply is `ReadOnly` and the next
/// count is the pre-batch count.
#[test]
fn wal_failure_after_the_build_rolls_back_to_the_pre_batch_count() {
    let dir = std::env::temp_dir().join(format!("cqmut_lazywal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = ServerConfig {
        data_dir: Some(dir.clone()),
        durability: DurabilityPolicy::Always,
        wal_fail_after: Some(0),
        ..ServerConfig::default()
    };
    let handle = start(config, LAZY_FACTS);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let mirror = parse_database(LAZY_FACTS).unwrap();
    let q = parse_query(LAZY_FACTS, LAZY_QUERY);
    let before = count_brute_force(&q, &mirror).to_string();

    assert_eq!(client.count("main", LAZY_QUERY, 0).unwrap().value, before);
    let err = client
        .mutate(
            "main",
            vec![op(true, "t", &["b"]), op(false, "r", &["a", "b"])],
        )
        .unwrap_err();
    match err {
        ClientError::Server { code, message, .. } => {
            assert_eq!(code, ErrorCode::ReadOnly, "{message}")
        }
        other => panic!("expected a server error, got {other}"),
    }
    assert_eq!(delta_builds(&mut client), 1);
    let reply = client.count("main", LAZY_QUERY, 0).unwrap();
    assert_eq!(reply.value, before, "the rolled-back batch moved the count");
    assert_eq!(client.stats().unwrap().delta_fallbacks, 0);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A RELOAD or FLUSH between the count and the mutation drops the pending
/// entry, so the mutation has nothing to build.
#[test]
fn reload_or_flush_before_the_mutation_leaves_nothing_to_build() {
    let handle = start(ServerConfig::default(), LAZY_FACTS);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let mut mirror = parse_database(LAZY_FACTS).unwrap();
    let q = parse_query(LAZY_FACTS, LAZY_QUERY);

    client.count("main", LAZY_QUERY, 0).unwrap();
    client.flush().unwrap();
    assert_eq!(client.insert("main", "t", &["b"]).unwrap().changed, 1);
    mirror.insert_tuple("t", &["b"]).unwrap();
    assert_eq!(delta_builds(&mut client), 0, "FLUSH left an entry");

    client.count("main", LAZY_QUERY, 0).unwrap();
    client.reload("main", LAZY_FACTS).unwrap();
    let mut mirror = parse_database(LAZY_FACTS).unwrap();
    assert_eq!(client.insert("main", "t", &["b"]).unwrap().changed, 1);
    mirror.insert_tuple("t", &["b"]).unwrap();
    assert_eq!(delta_builds(&mut client), 0, "RELOAD left an entry");

    // Neither was maintained, so the recount runs under the cached plan.
    let reply = client.count("main", LAZY_QUERY, 0).unwrap();
    assert_eq!(reply.cached, CacheTier::PlanWarm);
    assert_eq!(reply.value, count_brute_force(&q, &mirror).to_string());
    handle.shutdown();
}

/// Two maintainable queries over `r`, for the `materialize_cap` tests.
const R_QUERIES: [&str; 2] = ["ans(X, Y) :- r(X, Y).", "ans(X, Y, Z) :- r(X, Y), r(Y, Z)."];

/// `materialize_cap` bounds the *built* states the count cache holds: with
/// a cap of 1 the batch builds one of two pending states, refreshes that
/// count in place and drops the other, which then recounts under its
/// cached plan. Which of the two gets built is unspecified, but it stays
/// the one: the recount's fresh pending state finds the cap taken, so
/// later mutations build nothing more.
#[test]
fn materialize_cap_bounds_built_states() {
    let config = ServerConfig {
        materialize_cap: 1,
        ..ServerConfig::default()
    };
    let handle = start(config, LAZY_FACTS);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let mut mirror = parse_database(LAZY_FACTS).unwrap();
    for q in R_QUERIES {
        client.count("main", q, 0).unwrap();
    }
    let mut first_tiers = None;
    for values in [["c", "a"], ["a", "c"]] {
        assert_eq!(client.insert("main", "r", &values).unwrap().changed, 1);
        mirror.insert_tuple("r", &values).unwrap();
        assert_eq!(delta_builds(&mut client), 1);

        let mut tiers = Vec::new();
        for q in R_QUERIES {
            let reply = client.count("main", q, 0).unwrap();
            let brute = count_brute_force(&parse_query(LAZY_FACTS, q), &mirror);
            assert_eq!(reply.value, brute.to_string(), "{q}");
            tiers.push(reply.cached);
        }
        assert!(
            tiers.contains(&CacheTier::CountWarm) && tiers.contains(&CacheTier::PlanWarm),
            "{tiers:?}"
        );
        assert_eq!(*first_tiers.get_or_insert(tiers.clone()), tiers);
    }
    handle.shutdown();
}

/// `materialize_cap: 0` turns maintenance off: mutations build nothing
/// and every dependent count recounts, exactly, under its cached plan.
#[test]
fn materialize_cap_zero_builds_nothing() {
    let config = ServerConfig {
        materialize_cap: 0,
        ..ServerConfig::default()
    };
    let handle = start(config, LAZY_FACTS);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let mut mirror = parse_database(LAZY_FACTS).unwrap();
    for q in R_QUERIES {
        client.count("main", q, 0).unwrap();
    }
    for values in [["c", "a"], ["a", "c"]] {
        assert_eq!(client.insert("main", "r", &values).unwrap().changed, 1);
        mirror.insert_tuple("r", &values).unwrap();
        for q in R_QUERIES {
            let reply = client.count("main", q, 0).unwrap();
            let brute = count_brute_force(&parse_query(LAZY_FACTS, q), &mirror);
            assert_eq!(reply.value, brute.to_string(), "{q}");
            assert_eq!(reply.cached, CacheTier::PlanWarm, "{q}");
        }
    }
    assert_eq!(delta_builds(&mut client), 0);
    handle.shutdown();
}

/// A maintenance state lives and dies with its count-cache entry: when
/// FIFO churn evicts the entry, the state goes too, the next recount after
/// a mutation is cold (plan-warm), and the next mutation builds afresh.
#[test]
fn evicting_a_count_ends_its_maintenance_state() {
    let config = ServerConfig {
        count_cache_cap: 1,
        ..ServerConfig::default()
    };
    let handle = start(config, LAZY_FACTS);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let mut mirror = parse_database(LAZY_FACTS).unwrap();
    let q1 = R_QUERIES[0];
    let q2 = "ans(X, Y) :- s(X, Y).";
    let exact = |mirror: &Database| count_brute_force(&parse_query(LAZY_FACTS, q1), mirror);
    let mut mutate = |client: &mut Client, values: [&str; 2]| {
        assert_eq!(client.insert("main", "r", &values).unwrap().changed, 1);
        mirror.insert_tuple("r", &values).unwrap();
        exact(&mirror).to_string()
    };

    client.count("main", q1, 0).unwrap();
    let expect = mutate(&mut client, ["c", "a"]);
    let reply = client.count("main", q1, 0).unwrap();
    assert_eq!(reply.cached, CacheTier::CountWarm);
    assert_eq!(reply.value, expect);
    assert_eq!(delta_builds(&mut client), 1);

    // q2 takes the only slot; q1's entry and its built state are gone.
    client.count("main", q2, 0).unwrap();
    let expect = mutate(&mut client, ["a", "c"]);
    let reply = client.count("main", q1, 0).unwrap();
    assert_eq!(reply.cached, CacheTier::PlanWarm);
    assert_eq!(reply.value, expect);
    assert_eq!(delta_builds(&mut client), 1, "q2 is not over r");

    // The recount attached a fresh pending state, built by this mutation.
    let expect = mutate(&mut client, ["b", "a"]);
    assert_eq!(delta_builds(&mut client), 2);
    let reply = client.count("main", q1, 0).unwrap();
    assert_eq!(reply.cached, CacheTier::CountWarm);
    assert_eq!(reply.value, expect);
    handle.shutdown();
}
