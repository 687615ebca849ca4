//! The five workloads: what each one serves, how it is set up, and the
//! oracle every reply is checked against.

use crate::gen::{self, Inputs};
use cqcount_core::{count_brute_force, count_via_full_join};
use cqcount_query::{parse_database, parse_query};
use cqcount_relational::store::{encode_store, open_store};
use cqcount_relational::Database;
use cqcount_server::{serve, CacheTier, Client, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};

/// Name every workload serves its one database under.
pub const DB: &str = "main";

/// Where the served database lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backing {
    /// `parse_database` of a `.cq` text file: heap relations.
    Heap,
    /// `encode_store` → file → `open_store`: frozen relations on mmap'd pages.
    Mmap,
    /// Heap relations under a `data_dir`: WAL, snapshots, recovery.
    Durable,
}

/// What a reader does, untimed, before each pass over its query mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reset {
    /// Nothing: every count stays cached.
    Warm,
    /// `FLUSH`: plans and counts are gone.
    Flush,
    /// `ServerHandle::install_db`: the epoch bump drops counts, plans stay.
    InstallDb,
}

pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the result files.
    pub why: &'static str,
    pub make: fn(u64) -> Inputs,
    pub backing: Backing,
    pub reset: Reset,
    /// The cache tier every timed `COUNT` must report.
    pub tier: CacheTier,
    /// Blocking clients sending the timed `COUNT` mix.
    pub readers: usize,
    /// Pause of a reader between a reply and its next request, µs.
    pub reader_think_us: u64,
    /// The mutation client runs beside the readers for the whole timed
    /// phase.
    pub concurrent_writer: bool,
    /// Mutation cycles the traced run replays.
    pub mutation_cycles: usize,
    /// `COUNT`s of the mix sent, unchecked for tier, before timing starts.
    pub warmup_counts: usize,
    /// Traced run: queries of the mix replayed, passes over them against
    /// the server, and passes of the in-process reconstruction.
    pub trace_mix: usize,
    pub replay_passes: usize,
    pub recon_passes: usize,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "warm_hit",
        why: "count-cache-warm COUNTs from 2 clients: all time is wire, frame decode, L0/count cache and the reactor fast path; planner and kernels idle",
        make: gen::warm_hit,
        backing: Backing::Heap,
        reset: Reset::Warm,
        tier: CacheTier::CountWarm,
        readers: 2,
        reader_think_us: 0,
        concurrent_writer: false,
        mutation_cycles: 500,
        warmup_counts: 64,
        trace_mix: 8,
        replay_passes: 500,
        recon_passes: 10,
    },
    Spec {
        name: "plan_cold",
        why: "FLUSH then COUNT of 64 distinct cyclic queries on a 16-tuple database: all time is parse, colored core and width search at default pool threads; data work nil",
        make: gen::plan_cold,
        backing: Backing::Heap,
        reset: Reset::Flush,
        tier: CacheTier::Cold,
        readers: 1,
        reader_think_us: 0,
        concurrent_writer: false,
        mutation_cycles: 500,
        warmup_counts: 8,
        trace_mix: 24,
        replay_passes: 1,
        recon_passes: 1,
    },
    Spec {
        name: "count_acyclic",
        why: "plan-warm COUNTs of chain queries with and without projection on a heap-backed 100k-tuple database: scan, sort-merge bag join, full reducer, projection, join-tree DP",
        make: gen::count_acyclic,
        backing: Backing::Heap,
        reset: Reset::InstallDb,
        tier: CacheTier::PlanWarm,
        readers: 1,
        reader_think_us: 0,
        concurrent_writer: false,
        mutation_cycles: 500,
        warmup_counts: 10,
        trace_mix: 5,
        replay_passes: 4,
        recon_passes: 3,
    },
    Spec {
        name: "count_cyclic",
        why: "plan-warm triangle and 4-cycle COUNTs over a 16k-edge graph served frozen off an mmap'd store image: width-2 bags with intermediates near the AGM bound",
        make: gen::count_cyclic,
        backing: Backing::Mmap,
        reset: Reset::InstallDb,
        tier: CacheTier::PlanWarm,
        readers: 1,
        reader_think_us: 0,
        concurrent_writer: false,
        mutation_cycles: 500,
        warmup_counts: 6,
        trace_mix: 3,
        replay_passes: 6,
        recon_passes: 4,
    },
    Spec {
        name: "mutate_recount",
        why: "durable server: one client INSERTs/DELETEs a tuple and recounts the maintained query while another sends warm COUNTs of relations it never touches; then SYNC and on-disk bytes",
        make: gen::mutate_recount,
        backing: Backing::Durable,
        reset: Reset::Warm,
        tier: CacheTier::CountWarm,
        readers: 1,
        // Unpaced, this reader's median flips between runs from 13 to 36 µs
        // with how the scheduler happens to place it beside the writer;
        // paced it probes reader latency under write load and repeats.
        reader_think_us: 100,
        concurrent_writer: true,
        mutation_cycles: 500,
        warmup_counts: 2000,
        trace_mix: 1,
        replay_passes: 2000,
        recon_passes: 10,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// Expected count of `query` over `db` through a path the daemon never
/// takes: enumeration on the small databases, the textbook full join on
/// the large ones.
pub fn oracle(query: &str, db: &Database) -> Result<String, String> {
    let q = parse_query(query).map_err(|e| format!("oracle cannot parse {query:?}: {e}"))?;
    let n = if db.total_tuples() <= 1_000 {
        count_brute_force(&q, db)
    } else {
        count_via_full_join(&q, db)
    };
    Ok(n.to_string())
}

/// A workload set up and serving: inputs, oracle values, the daemon.
pub struct Live {
    pub spec: &'static Spec,
    pub inputs: Inputs,
    /// Expected decimal count per query of the mix.
    pub expected: Vec<String>,
    /// Expected count of the maintained query without / with the mutation
    /// tuple.
    pub without: String,
    pub with: String,
    pub tuples: usize,
    /// The parsed database: clones of it are what `install_db` installs on
    /// the heap workloads, and the in-process reconstruction reads it.
    pub heap_db: Database,
    /// What a restart boots from: `.cq` text, store image, or data dir.
    pub source: PathBuf,
    pub config: ServerConfig,
    pub handle: Option<ServerHandle>,
}

impl Live {
    /// Generates the inputs from `seed`, loads them the way the workload's
    /// backing says, starts the daemon at its shipped defaults, computes
    /// the oracle and warms the caches the workload needs warm. `dir` is
    /// emptied first.
    pub fn setup(spec: &'static Spec, seed: u64, dir: &Path) -> Result<Live, String> {
        let io = |e: std::io::Error| format!("{}: {e}", dir.display());
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(io)?;
        }
        std::fs::create_dir_all(dir).map_err(io)?;
        let inputs = (spec.make)(seed);
        let heap_db = parse_database(&inputs.db_text).map_err(|e| format!("generated db: {e}"))?;
        let tuples = heap_db.total_tuples();
        let mut config = ServerConfig::default();
        let source = match spec.backing {
            Backing::Heap => {
                let path = dir.join("db.cq");
                std::fs::write(&path, &inputs.db_text).map_err(io)?;
                path
            }
            Backing::Mmap => {
                let path = dir.join("db.store");
                std::fs::write(&path, encode_store(&heap_db, 1, 0)).map_err(io)?;
                path
            }
            Backing::Durable => {
                let path = dir.join("data");
                config.data_dir = Some(path.clone());
                path
            }
        };
        let expected = inputs
            .queries
            .iter()
            .map(|q| oracle(q, &heap_db))
            .collect::<Result<Vec<_>, _>>()?;
        let without = oracle(&inputs.mutation.query, &heap_db)?;
        let with = {
            let mut db = heap_db.clone();
            let values: Vec<&str> = inputs.mutation.values.iter().map(String::as_str).collect();
            match db.insert_tuple(&inputs.mutation.rel, &values) {
                Ok(true) => {}
                other => return Err(format!("mutation tuple is not new: {other:?}")),
            }
            oracle(&inputs.mutation.query, &db)?
        };
        if with == without {
            return Err("mutation tuple does not move the maintained count".into());
        }
        let mut live = Live {
            spec,
            inputs,
            expected,
            without,
            with,
            tuples,
            heap_db,
            source,
            config,
            handle: None,
        };
        let first = match spec.backing {
            // The durable daemon gets its database once; later boots
            // recover it from the data dir.
            Backing::Durable => vec![(DB.to_owned(), live.heap_db.clone())],
            _ => vec![(DB.to_owned(), live.fresh_db()?)],
        };
        live.handle = Some(serve(live.config.clone(), first).map_err(|e| format!("serve: {e}"))?);
        live.warm_up()?;
        Ok(live)
    }

    pub fn handle(&self) -> &ServerHandle {
        self.handle.as_ref().expect("daemon is running")
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.handle().local_addr()).map_err(|e| format!("connect: {e}"))
    }

    /// A database equal to the generated one with the workload's backing:
    /// what `install_db` installs before each plan-warm pass.
    pub fn fresh_db(&self) -> Result<Database, String> {
        match self.spec.backing {
            Backing::Mmap => open_store(&self.source)
                .map(|loaded| loaded.db)
                .map_err(|e| format!("open_store: {e}")),
            _ => Ok(self.heap_db.clone()),
        }
    }

    /// Stops the daemon and waits for its threads.
    pub fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }

    /// Boots a daemon from `source` alone, the way an operator's start
    /// after a stop would.
    pub fn boot(&mut self) -> Result<(), String> {
        self.stop();
        let initial = match self.spec.backing {
            Backing::Heap => {
                let text = std::fs::read_to_string(&self.source)
                    .map_err(|e| format!("{}: {e}", self.source.display()))?;
                let db = parse_database(&text).map_err(|e| format!("restart parse: {e}"))?;
                vec![(DB.to_owned(), db)]
            }
            Backing::Mmap => vec![(DB.to_owned(), self.fresh_db()?)],
            Backing::Durable => Vec::new(),
        };
        self.handle = Some(serve(self.config.clone(), initial).map_err(|e| format!("serve: {e}"))?);
        Ok(())
    }

    /// Applies the reader's per-pass reset.
    pub fn reset(&self, client: &mut Client) -> Result<(), String> {
        match self.spec.reset {
            Reset::Warm => Ok(()),
            Reset::Flush => client.flush().map_err(|e| format!("flush: {e}")),
            Reset::InstallDb => {
                self.handle().install_db(DB, self.fresh_db()?);
                Ok(())
            }
        }
    }

    /// Counts the maintained query (pinning its materialization) and sends
    /// `warmup_counts` COUNTs of the mix, checking every value.
    fn warm_up(&self) -> Result<(), String> {
        let mut client = self.connect()?;
        let got = client
            .count(DB, &self.inputs.mutation.query, 0)
            .map_err(|e| format!("warm-up count: {e}"))?;
        if got.value != self.without {
            return Err(format!(
                "maintained query: daemon says {}, oracle says {}",
                got.value, self.without
            ));
        }
        for i in 0..self.spec.warmup_counts {
            let qi = i % self.inputs.queries.len();
            let got = client
                .count(DB, &self.inputs.queries[qi], 0)
                .map_err(|e| format!("warm-up count: {e}"))?;
            if got.value != self.expected[qi] {
                return Err(format!(
                    "query {qi}: daemon says {}, oracle says {}",
                    got.value, self.expected[qi]
                ));
            }
        }
        Ok(())
    }

    /// Bytes a restart would read: the source file, or everything under
    /// the data dir.
    pub fn source_bytes(&self) -> std::io::Result<u64> {
        fn walk(path: &Path) -> std::io::Result<u64> {
            let meta = std::fs::metadata(path)?;
            if !meta.is_dir() {
                return Ok(meta.len());
            }
            let mut total = 0;
            for entry in std::fs::read_dir(path)? {
                total += walk(&entry?.path())?;
            }
            Ok(total)
        }
        walk(&self.source)
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        self.stop();
    }
}
