//! End-to-end tests: a real `cqcountd` server on a loopback port, real
//! clients over TCP. Covers the acceptance scenarios: concurrent clients
//! sharing the count cache, RELOAD invalidation, budget enforcement on
//! oversized brute-force requests, admission-control overload, and warm
//! hits answered by the reactor while every worker is busy.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cqcount_core::count_brute_force;
use cqcount_query::{parse_database, parse_program};
use cqcount_server::protocol::CacheTier;
use cqcount_server::{serve, Client, ClientError, ErrorCode, ServerConfig, ServerHandle};

const FIXTURE: &str = include_str!("../fixtures/example11.cq");

/// The paper's Example 1.1 query Q0 over the fixture instance (count 5).
const Q0: &str = "ans(A, B, C) :- mw(A, B, I), wt(B, D), wi(B, E), pt(C, D), \
                  st(D, F), st(D, G), rr(G, H), rr(F, H), rr(D, H).";

/// Q0 with variables renamed and atoms reordered — a different *text*, the
/// same *query* up to canonicalization.
const Q0_RENAMED: &str = "ans(M, W, P) :- rr(V, R), rr(U, R), rr(T, R), st(T, U), \
                          st(T, V), pt(P, T), wi(W, E), wt(W, T), mw(M, W, S).";

fn start(config: ServerConfig) -> ServerHandle {
    let db = parse_database(FIXTURE).unwrap();
    serve(config, vec![("main".into(), db)]).expect("bind loopback")
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(handle.local_addr()).expect("connect")
}

#[test]
fn count_matches_brute_force_and_warms_both_cache_levels() {
    let handle = start(ServerConfig::default());
    let mut c = connect(&handle);

    let (q, db) = parse_program(&format!("{FIXTURE}\n{Q0}")).unwrap();
    let expected = count_brute_force(&q.unwrap(), &db).to_string();

    let cold = c.count("main", Q0, 0).unwrap();
    assert_eq!(cold.value, expected);
    assert_eq!(cold.cached, CacheTier::Cold);

    // Same query again: served straight from the count cache.
    let warm = c.count("main", Q0, 0).unwrap();
    assert_eq!(warm.value, expected);
    assert_eq!(warm.cached, CacheTier::CountWarm);

    // A renamed/reordered variant hits the same cache entry: the key is
    // the canonical fingerprint, not the text.
    let renamed = c.count("main", Q0_RENAMED, 0).unwrap();
    assert_eq!(renamed.value, expected);
    assert_eq!(renamed.cached, CacheTier::CountWarm);
    assert_eq!(renamed.fingerprint, cold.fingerprint);

    handle.shutdown();
}

#[test]
fn concurrent_clients_share_the_count_cache() {
    let handle = start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });

    // Prime both cache levels from a first client.
    let mut primer = connect(&handle);
    let first = primer.count("main", Q0, 0).unwrap();
    assert_eq!(first.cached, CacheTier::Cold);

    // Two clients race the same query; both must be served from cache.
    let addr = handle.local_addr();
    let replies: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.count("main", Q0, 0).unwrap()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();
    for r in &replies {
        assert_eq!(r.value, first.value);
        assert_eq!(r.cached, CacheTier::CountWarm);
    }

    // The cache sharing is observable via STATS.
    let stats = primer.stats().unwrap();
    assert!(stats.count_hits >= 2, "stats: {stats:?}");
    assert!(stats.served >= 3);

    handle.shutdown();
}

#[test]
fn reload_bumps_the_epoch_and_invalidates_counts_but_not_plans() {
    let handle = start(ServerConfig::default());
    let mut c = connect(&handle);

    let before = c.count("main", Q0, 0).unwrap();
    assert_eq!(c.count("main", Q0, 0).unwrap().cached, CacheTier::CountWarm);

    // Reload with one extra manager-workshop pair; the count must change.
    let extra = format!("{FIXTURE}\nmw(m3, w2, 40).");
    let epoch = c.reload("main", &extra).unwrap();
    assert_eq!(epoch, 2);

    let (q, db) = parse_program(&format!("{extra}\n{Q0}")).unwrap();
    let expected = count_brute_force(&q.unwrap(), &db).to_string();
    assert_ne!(expected, before.value, "the reload must change the count");

    // The stale cached count is unreachable (epoch key), but the *plan*
    // cache survives: the recount is plan-warm, not cold.
    let after = c.count("main", Q0, 0).unwrap();
    assert_eq!(after.value, expected);
    assert_eq!(after.cached, CacheTier::PlanWarm);

    // And the new count is cached under the new epoch.
    assert_eq!(c.count("main", Q0, 0).unwrap().cached, CacheTier::CountWarm);

    // Epoch and fingerprint are visible in STATS.
    let stats = c.stats().unwrap();
    let db_row = stats.dbs.iter().find(|d| d.name == "main").unwrap();
    assert_eq!(db_row.epoch, 2);

    handle.shutdown();
}

/// A 7-clique over a complete digraph: #-hypertree width 4 > cap 3, no
/// hybrid handle, so the planner must brute-force ~40^7 homomorphisms —
/// the adversarial request the budget exists for.
fn oversized_request() -> (String, String) {
    let mut facts = String::new();
    for i in 0..40 {
        for j in 0..40 {
            if i != j {
                facts.push_str(&format!("e(n{i}, n{j}). "));
            }
        }
    }
    let vars: Vec<String> = (1..=7).map(|i| format!("X{i}")).collect();
    let mut atoms = Vec::new();
    for i in 0..7 {
        for j in (i + 1)..7 {
            atoms.push(format!("e({}, {})", vars[i], vars[j]));
        }
    }
    let query = format!("ans({}) :- {}.", vars.join(", "), atoms.join(", "));
    (facts, query)
}

#[test]
fn oversized_brute_force_request_trips_the_budget() {
    let handle = start(ServerConfig::default());
    let mut c = connect(&handle);
    let (facts, query) = oversized_request();
    c.reload("big", &facts).unwrap();

    let started = std::time::Instant::now();
    let err = c.count("big", &query, 50).unwrap_err();
    match err {
        ClientError::Server { code, message, .. } => {
            assert_eq!(code, ErrorCode::BudgetExceeded, "{message}");
            // The message is the round-trippable PlanError rendering.
            assert!(
                message.parse::<cqcount_core::PlanError>().is_ok(),
                "{message}"
            );
        }
        other => panic!("expected a server error, got {other:?}"),
    }
    // "instead of stalling": it must come back near the budget, not after
    // exhausting the search space.
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "took {:?}",
        started.elapsed()
    );

    handle.shutdown();
}

#[test]
fn full_queue_yields_overloaded_not_buffering() {
    let handle = start(ServerConfig {
        workers: 1,
        queue_cap: 1,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    let mut admin = connect(&handle);
    let (facts, query) = oversized_request();
    admin.reload("big", &facts).unwrap();

    // Two slow requests: one occupies the single worker, one fills the
    // queue. Staggered starts so the first is already *running* (queue
    // drained) before the second is enqueued.
    let mut slow = Vec::new();
    for i in 0..2u64 {
        let query = query.clone();
        slow.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            // Each uses a distinct budget so the two jobs differ.
            c.count("big", &query, 1500 + i).unwrap_err()
        }));
        std::thread::sleep(std::time::Duration::from_millis(400));
    }

    // The third concurrent request must be rejected immediately, and the
    // rejection carries the configured backoff hint.
    let mut c3 = connect(&handle);
    let started = std::time::Instant::now();
    let err = c3.count("big", &query, 1500).unwrap_err();
    match err {
        ClientError::Server {
            code,
            retry_after_ms,
            ..
        } => {
            assert_eq!(code, ErrorCode::Overloaded);
            assert_eq!(
                retry_after_ms,
                ServerConfig::default().overload_retry_after_ms
            );
        }
        other => panic!("expected overload, got {other:?}"),
    }
    assert!(started.elapsed() < std::time::Duration::from_millis(500));

    // The admitted requests finish with budget errors, not hangs.
    for t in slow {
        match t.join().unwrap() {
            ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::BudgetExceeded),
            other => panic!("expected budget error, got {other:?}"),
        }
    }
    assert!(admin.stats().unwrap().overloaded >= 1);

    handle.shutdown();
}

/// Reads one unlabelled sample (or one exact `name{labels}` series) from
/// the METRICS exposition.
fn metric(c: &mut Client, series: &str) -> u64 {
    let text = c.metrics().unwrap();
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no `{series}` sample in:\n{text}"))
}

#[test]
fn warm_hits_are_served_while_every_worker_is_busy() {
    let handle = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    let mut admin = connect(&handle);
    let (facts, query) = oversized_request();
    admin.reload("big", &facts).unwrap();
    assert_eq!(admin.count("main", Q0, 0).unwrap().cached, CacheTier::Cold);
    assert_eq!(
        admin.count("main", Q0, 0).unwrap().cached,
        CacheTier::CountWarm
    );
    let counts = r#"cqcount_requests_total{op="count"}"#;
    let counts_before = metric(&mut admin, counts);
    let hits_before = metric(&mut admin, "cqcount_fast_path_hits_total");

    // Occupy the one worker with a budgeted brute-force count.
    let replied = Arc::new(AtomicBool::new(false));
    let slow = std::thread::spawn({
        let replied = Arc::clone(&replied);
        move || {
            let err = Client::connect(addr)
                .unwrap()
                .count("big", &query, 3000)
                .unwrap_err();
            replied.store(true, Ordering::SeqCst);
            err
        }
    });
    // Wait until the slow count is decoded and a worker has taken it.
    while metric(&mut admin, counts) == counts_before
        || metric(&mut admin, "cqcount_queue_depth") != 0
    {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // A second connection's warm count is answered by the reactor while
    // the worker is still busy.
    let warm = connect(&handle).count("main", Q0, 0).unwrap();
    assert!(
        !replied.load(Ordering::SeqCst),
        "the warm hit waited for the busy worker"
    );
    assert_eq!(warm.cached, CacheTier::CountWarm);
    assert_eq!(warm.value, "5");
    assert!(metric(&mut admin, "cqcount_fast_path_hits_total") > hits_before);

    match slow.join().unwrap() {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::BudgetExceeded),
        other => panic!("expected budget error, got {other:?}"),
    }

    handle.shutdown();
}

#[test]
fn planning_budget_exhaustion_degrades_instead_of_erroring() {
    // `plan_budget_ms: Some(0)` trips the planning budget deterministically,
    // so every cold count exercises the degradation ladder. The fixture
    // query is cyclic with existential variables, so the ladder bottoms out
    // in budgeted brute force — still exact, flagged `degraded`.
    let handle = start(ServerConfig {
        plan_budget_ms: Some(0),
        ..ServerConfig::default()
    });
    let mut c = connect(&handle);

    let (q, db) = parse_program(&format!("{FIXTURE}\n{Q0}")).unwrap();
    let expected = count_brute_force(&q.unwrap(), &db).to_string();

    let reply = c.count("main", Q0, 0).unwrap();
    assert_eq!(reply.value, expected, "degraded counts stay exact");
    assert!(reply.degraded);
    assert_eq!(reply.plan, "brute-force");

    // Degraded plans are not cached — but the exact *count* is, and a
    // count-cache hit is not degraded service.
    let warm = c.count("main", Q0, 0).unwrap();
    assert_eq!(warm.cached, CacheTier::CountWarm);
    assert!(!warm.degraded);

    let stats = c.stats().unwrap();
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.plan_hits, 0, "degraded plans must not warm the cache");

    handle.shutdown();
}

#[test]
fn idle_connections_are_reaped_by_the_read_deadline() {
    let handle = start(ServerConfig {
        read_timeout_ms: 100,
        ..ServerConfig::default()
    });

    // An idle client: connects, says nothing past the deadline.
    let idle = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(400));

    // The server reaped it without replying; the socket observes EOF.
    let mut probe = idle;
    probe
        .set_read_timeout(Some(std::time::Duration::from_millis(500)))
        .unwrap();
    let mut buf = [0u8; 1];
    use std::io::Read as _;
    assert_eq!(probe.read(&mut buf).unwrap_or(0), 0, "expected EOF");

    // A live client on the same server is unaffected (it talks promptly).
    let mut c = connect(&handle);
    assert!(c.count("main", Q0, 0).is_ok());
    assert!(c.stats().unwrap().reaped >= 1);

    handle.shutdown();
}

#[test]
fn shutdown_is_prompt_and_drop_is_idempotent() {
    let handle = start(ServerConfig::default());
    let addr = handle.local_addr();
    let mut c = connect(&handle);
    c.count("main", Q0, 0).unwrap();

    let started = std::time::Instant::now();
    handle.shutdown();
    // The poll-based accept loop notices the stop flag without needing a
    // wake-up connection; well under a second even with nobody dialing in.
    assert!(
        started.elapsed() < std::time::Duration::from_secs(2),
        "shutdown took {:?}",
        started.elapsed()
    );
    // The listener is really gone.
    assert!(Client::connect(addr).is_err());
}

#[test]
fn reload_frames_larger_than_the_read_pause_still_arrive() {
    // A single frame bigger than the reactor's 1 MiB read-fairness pause:
    // the reactor must keep reading past the pause while a frame is
    // incomplete, or the connection deadlocks until the read deadline
    // reaps it (bulk RELOADs regressed exactly this way).
    let handle = start(ServerConfig::default());
    let mut c = connect(&handle);
    let mut facts = String::with_capacity(2 << 20);
    let mut i = 0u64;
    while facts.len() < (2 << 20) {
        facts.push_str(&format!("big(n{i}, n{}).\n", i + 1));
        i += 1;
    }
    c.reload("bulk", &facts).expect("a 2 MiB reload must land");
    let reply = c.count("bulk", "ans(X, Y) :- big(X, Y).", 0).unwrap();
    assert_eq!(reply.value, i.to_string());
    handle.shutdown();
}

#[test]
fn enumerate_returns_a_bounded_prefix() {
    let handle = start(ServerConfig::default());
    let mut c = connect(&handle);

    let (rows, truncated) = c.enumerate("main", Q0, 100, 0).unwrap();
    assert_eq!(rows.len(), 5);
    assert!(!truncated);
    // Rows are free-variable bindings (A, B, C) over the fixture names.
    assert!(rows.iter().all(|r| r.len() == 3));
    assert!(rows.iter().any(|r| r == &["m1", "w1", "p1"]));

    let (prefix, truncated) = c.enumerate("main", Q0, 2, 0).unwrap();
    assert_eq!(prefix.len(), 2);
    assert!(truncated);

    handle.shutdown();
}

#[test]
fn width_report_and_error_paths() {
    let handle = start(ServerConfig::default());
    let mut c = connect(&handle);

    let r = c.width_report(Q0, 0).unwrap();
    assert!(!r.acyclic);
    assert_eq!(r.ghw, Some(2));
    assert_eq!(r.sharp_width, Some(2));
    assert_eq!((r.atoms, r.vars, r.free), (9, 9, 3));

    // Parse errors carry the round-trippable ParseError rendering.
    match c.count("main", "ans(X :- r(X).", 0).unwrap_err() {
        ClientError::Server { code, message, .. } => {
            assert_eq!(code, ErrorCode::Parse);
            assert!(
                message.parse::<cqcount_query::parser::ParseError>().is_ok(),
                "{message}"
            );
        }
        other => panic!("expected parse error, got {other:?}"),
    }

    // Unknown database.
    match c.count("nope", Q0, 0).unwrap_err() {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::UnknownDb),
        other => panic!("expected unknown-db error, got {other:?}"),
    }

    // Flush drops the caches; the next count is cold again.
    c.count("main", Q0, 0).unwrap();
    c.flush().unwrap();
    assert_eq!(c.count("main", Q0, 0).unwrap().cached, CacheTier::Cold);

    handle.shutdown();
}

/// Plain cycles of 12–20 atoms plan cold on the default configuration: the
/// block recursion is at most #variables deep, so long cycles are no harder
/// for the daemon than short ones.
#[test]
fn long_plain_cycles_plan_cold_and_match_brute_force() {
    const TRIANGLE: &str = "e(a,b). e(b,c). e(c,a).";
    let db = parse_database(TRIANGLE).unwrap();
    let handle = serve(ServerConfig::default(), vec![("main".into(), db)]).expect("bind loopback");
    let mut c = connect(&handle);
    c.flush().unwrap();

    for (n, expected) in [(12usize, "3"), (14, "0"), (16, "0"), (20, "0")] {
        let body: Vec<String> = (0..n)
            .map(|i| format!("e(X{i}, X{})", (i + 1) % n))
            .collect();
        let text = format!("ans(X0, X1) :- {}.", body.join(", "));
        let (q, db) = parse_program(&format!("{TRIANGLE}\n{text}")).unwrap();
        let brute = count_brute_force(&q.unwrap(), &db).to_string();
        assert_eq!(brute, expected, "n = {n}");

        let reply = c.count("main", &text, 0).unwrap();
        assert_eq!(reply.value, brute, "n = {n}");
        assert_eq!(reply.cached, CacheTier::Cold, "n = {n}");
    }
    // The daemon survived every plan and still serves.
    assert!(c.stats().unwrap().served >= 4);

    handle.shutdown();
}
