//! End-to-end observability tests: `PROFILE` span trees, the degraded
//! root tag, `METRICS` exposition consistency, and `--trace-log` JSONL
//! output — all over a real loopback server.

use cqcount_query::parse_database;
use cqcount_server::protocol::CacheTier;
use cqcount_server::{serve, Client, ServerConfig, ServerHandle, SpanNode};

/// A width-2 cycle query (the triangle): no single atom covers the cycle,
/// so the planner needs a genuine width-2 decomposition.
const CYCLE_Q: &str = "ans(X, Y, Z) :- r(X, Y), s(Y, Z), t(Z, X).";

/// A sparse instance for the triangle: enough tuples that the count does
/// real kernel work, small enough to stay fast on one core. With offsets
/// {1, 2, 5} over Z_30 the `d = 5` lane closes (5 + 2·5 + 3·5 = 30), so
/// every vertex seeds a triangle: the count is 30.
fn cycle_facts(n: u64) -> String {
    let mut s = String::new();
    for i in 0..n {
        for d in [1, 2, 5] {
            s.push_str(&format!("r(v{}, v{}).\n", i, (i + d) % n));
            s.push_str(&format!("s(v{}, v{}).\n", i, (i + 2 * d) % n));
            s.push_str(&format!("t(v{}, v{}).\n", i, (i + 3 * d) % n));
        }
    }
    s
}

fn start(config: ServerConfig) -> ServerHandle {
    let db = parse_database(&cycle_facts(30)).unwrap();
    serve(config, vec![("main".into(), db)]).expect("bind loopback")
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(handle.local_addr()).expect("connect")
}

/// Every span name in the tree, depth-first.
fn span_names(node: &SpanNode, out: &mut Vec<String>) {
    out.push(node.name.clone());
    for c in &node.children {
        span_names(c, out);
    }
}

fn find_span<'a>(node: &'a SpanNode, name: &str) -> Option<&'a SpanNode> {
    if node.name == name {
        return Some(node);
    }
    node.children.iter().find_map(|c| find_span(c, name))
}

/// Every child's `[start, start + duration]` interval lies inside its
/// parent's, all the way down.
fn assert_nested(node: &SpanNode) {
    let end = node.start_ns + node.duration_ns;
    for c in &node.children {
        assert!(
            c.start_ns >= node.start_ns && c.start_ns + c.duration_ns <= end,
            "span {} [{}, +{}] escapes its parent {} [{}, +{}]",
            c.name,
            c.start_ns,
            c.duration_ns,
            node.name,
            node.start_ns,
            node.duration_ns
        );
        assert_nested(c);
    }
}

#[test]
fn profile_returns_the_span_tree_of_a_cold_count() {
    let handle = start(ServerConfig::default());
    let mut c = connect(&handle);

    let cold = c.profile("main", CYCLE_Q, 0).unwrap();
    assert_eq!(cold.value, "30", "triangle count over the Z_30 instance");
    assert_eq!(cold.cached, CacheTier::Cold);
    assert_eq!(cold.root.name, "request");
    assert!(
        cold.root
            .tags
            .iter()
            .any(|(k, v)| k == "op" && v == "profile"),
        "root should carry the opcode tag, got {:?}",
        cold.root.tags
    );
    assert!(
        cold.root.counters.iter().any(|(k, _)| k == "wait_ns"),
        "root should carry queue-wait attribution"
    );
    assert!(cold.total_ns > 0);
    assert_eq!(cold.root.duration_ns, cold.total_ns);

    let mut names = Vec::new();
    span_names(&cold.root, &mut names);
    for expected in ["server.parse", "server.cache_probe", "server.plan"] {
        assert!(
            names.iter().any(|n| n == expected),
            "missing {expected} span"
        );
    }
    let decompose = find_span(&cold.root, "plan.decompose").unwrap_or_else(|| {
        panic!("a cold profile must show the decomposition search, got {names:?}")
    });
    for sub in [
        "plan.core",
        "plan.candidates",
        "plan.blocks",
        "plan.witness",
    ] {
        assert!(
            find_span(decompose, sub).is_some(),
            "plan.decompose must hold the {sub} planner sub-span, got {names:?}"
        );
    }
    assert!(
        names.iter().any(|n| n.starts_with("count.")),
        "a cold profile must show the counting rung, got {names:?}"
    );

    // Structure, not wall-clock shares: every span lies inside its parent,
    // and where the children run one after another on one thread — the
    // request's stages, and the single-lane decomposition search — their
    // durations sum to at most the parent's.
    assert_nested(&cold.root);
    for parent in [&cold.root, decompose] {
        let children: u64 = parent.children.iter().map(|c| c.duration_ns).sum();
        assert!(
            children <= parent.duration_ns,
            "children of {} sum to {children} ns, more than its {} ns",
            parent.name,
            parent.duration_ns
        );
    }

    // The profiled count agrees with the plain COUNT path (served warm
    // from the cache the profile populated).
    let plain = c.count("main", CYCLE_Q, 0).unwrap();
    assert_eq!(plain.value, cold.value);
    assert_eq!(plain.cached, CacheTier::CountWarm);

    // Profiling a warm count yields a slim tree: probe hit, no planning.
    let warm = c.profile("main", CYCLE_Q, 0).unwrap();
    assert_eq!(warm.cached, CacheTier::CountWarm);
    let mut warm_names = Vec::new();
    span_names(&warm.root, &mut warm_names);
    assert!(warm_names.iter().any(|n| n == "server.cache_probe"));
    assert!(
        !warm_names.iter().any(|n| n == "server.plan"),
        "a count-cache hit must not replan, got {warm_names:?}"
    );

    handle.shutdown();
}

#[test]
fn a_small_cold_count_never_enters_the_pool() {
    // 16 edges i → i+2 and i → i+3 over Z_8. A triangle takes one step of
    // 2 and two of 3 (2 + 3 + 3 = 8), so it closes from every start vertex
    // in 3 step orders: 24 answers.
    let facts: String = (0..8)
        .flat_map(|i| [2, 3].map(|d| format!("e(v{i}, v{}).\n", (i + d) % 8)))
        .collect();
    let db = parse_database(&facts).unwrap();
    assert_eq!(db.total_tuples(), 16);
    let handle = serve(ServerConfig::default(), vec![("small".into(), db)]).expect("bind loopback");
    let mut c = connect(&handle);

    let cold = c
        .profile("small", "ans(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).", 0)
        .unwrap();
    assert_eq!(cold.value, "24");
    assert_eq!(cold.cached, CacheTier::Cold);
    let mut names = Vec::new();
    span_names(&cold.root, &mut names);
    assert!(
        names.iter().any(|n| n.starts_with("count.")),
        "a cold profile must show the counting rung, got {names:?}"
    );
    // Below the bag-level size gate every bag is built on the worker that
    // serves the request: no pool task may appear, at any lane count.
    assert!(
        !names.iter().any(|n| n == "exec.task"),
        "a 16-tuple count ran pool tasks: {names:?}"
    );

    handle.shutdown();
}

#[test]
fn degraded_count_tags_the_profile_root_with_the_reason() {
    // `plan_budget_ms: Some(0)` trips the planning budget immediately —
    // the deterministic degradation trigger from the chaos suite.
    let handle = start(ServerConfig {
        plan_budget_ms: Some(0),
        ..ServerConfig::default()
    });
    let mut c = connect(&handle);

    let r = c.profile("main", CYCLE_Q, 0).unwrap();
    assert!(r.degraded, "zero plan budget must degrade the plan");
    let tag = r
        .root
        .tags
        .iter()
        .find(|(k, _)| k == "degraded")
        .map(|(_, v)| v.clone());
    match tag {
        Some(reason) => assert!(
            reason.contains("plan budget exhausted"),
            "unexpected degradation reason {reason:?}"
        ),
        None => panic!(
            "degraded reply must tag the root span, got tags {:?}",
            r.root.tags
        ),
    }

    handle.shutdown();
}

#[test]
fn metrics_exposition_matches_the_traffic_sent() {
    let handle = start(ServerConfig::default());
    let mut c = connect(&handle);

    for _ in 0..3 {
        c.count("main", CYCLE_Q, 0).unwrap();
    }
    c.stats().unwrap();
    let text = c.metrics().unwrap();

    // One cold count (a miss) then two count-cache hits.
    for line in [
        "cqcount_requests_total{op=\"count\"} 3",
        "cqcount_requests_total{op=\"stats\"} 1",
        "cqcount_requests_total{op=\"metrics\"} 1",
        "cqcount_cache_misses_total{cache=\"count\"} 1",
        "cqcount_cache_hits_total{cache=\"count\"} 2",
        "cqcount_requests_served_total 5",
        // 4 replies written before METRICS rendered (its own latency is
        // observed after the render).
        "cqcount_request_latency_us_count 4",
    ] {
        assert!(
            text.lines().any(|l| l == line),
            "metrics text missing {line:?}:\n{text}"
        );
    }
    assert!(text.contains("# TYPE cqcount_request_latency_us histogram"));
    assert!(text.contains("cqcount_request_latency_us_bucket{le=\"+Inf\"} 4"));

    // The planner search counters are exposed on the same registry. They
    // are process-wide (shared across every server in this test binary),
    // so assert presence and that this binary's cold plans registered.
    for event in [
        "blocks_solved",
        "memo_hits",
        "negative_reuse",
        "candidates_yielded",
        "universes_opened",
        "widths_searched",
    ] {
        assert!(
            text.contains(&format!(
                "cqcount_planner_events_total{{event=\"{event}\"}}"
            )),
            "metrics text missing planner counter {event}:\n{text}"
        );
    }
    let planner_line = |event: &str| {
        text.lines()
            .find(|l| {
                l.starts_with(&format!(
                    "cqcount_planner_events_total{{event=\"{event}\"}}"
                ))
            })
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap()
    };
    assert!(planner_line("widths_searched") >= 1);
    assert!(planner_line("blocks_solved") >= 1);

    // The v2 STATS shim reads the same registry counters, so the two
    // views can never disagree.
    let s = c.stats().unwrap();
    assert_eq!(s.served, 6); // + metrics + this stats
    assert_eq!(s.count_hits, 2);
    assert_eq!(s.count_misses, 1);
    assert_eq!(s.malformed, 0);

    handle.shutdown();
}

#[test]
fn trace_log_streams_one_json_line_per_counting_request() {
    let path = std::env::temp_dir().join(format!("cqcount-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let handle = start(ServerConfig {
        trace_log: Some(path.clone()),
        ..ServerConfig::default()
    });
    let mut c = connect(&handle);

    c.count("main", CYCLE_Q, 0).unwrap();
    c.count("main", CYCLE_Q, 0).unwrap();
    c.width_report(CYCLE_Q, 0).unwrap();
    c.stats().unwrap(); // admin: must NOT be logged
    handle.shutdown();

    let log = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 3, "3 counting requests -> 3 lines:\n{log}");
    assert!(lines[0].starts_with("{\"seq\":1,\"op\":\"count\""));
    assert!(lines[1].starts_with("{\"seq\":2,\"op\":\"count\""));
    assert!(lines[2].starts_with("{\"seq\":3,\"op\":\"width_report\""));
    for line in &lines {
        assert!(line.contains("\"name\":\"request\""));
        assert!(line.contains("\"total_ns\":"));
        // Structural sanity: braces and brackets balance.
        let balance = |open: char, close: char| {
            line.chars().filter(|&c| c == open).count()
                == line.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'), "unbalanced: {line}");
    }
    assert!(lines[0].contains("\"name\":\"server.parse\""));

    let _ = std::fs::remove_file(&path);
}
