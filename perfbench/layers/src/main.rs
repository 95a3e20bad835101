//! `perfbench-layers`: the benchmark's traced mode for one graph.
//!
//! Calls graphio's layers through their public functions, in the order the
//! analysis pipeline runs them, and wraps every call in a span (name,
//! start, end, parent). Spans stay in memory and are printed as one JSON
//! line when the run ends. Nothing inside the program is instrumented.
//!
//! ```text
//! perfbench-layers --graph G.json --memories 4,16 --body-out BODY \
//!     --store-dir DIR [--hot-reps N]
//! ```
//!
//! Roots written, in order:
//! - `analysis` — one cold pass: parse → fingerprint → Laplacians →
//!   eigensolves → bounds → min-cut → simulate → analysis document →
//!   store save → store load. The document is written to `--body-out`, so
//!   the caller can compare it with `graphio analyze --json`.
//! - `hit` × N — what a cache hit repeats on the warm session: parse,
//!   fingerprint, simulate and the analysis document.
//! - `probe.matvec` — the CSR mat-vec alone, in timed batches.

use graphio_baselines::ConvexMinCutOptions;
use graphio_graph::json::JsonValue;
use graphio_graph::topo::natural_order;
use graphio_graph::{fingerprint, CompGraph, EdgeListGraph};
use graphio_linalg::lanczos;
use graphio_linalg::stats::sparse_matvec_count;
use graphio_pebble::{simulate, Policy};
use graphio_service::analysis::{analysis_body, AnalyzeSpec};
use graphio_spectral::{
    BoundOptions, EigenMethod, LaplacianKind, OwnedAnalyzer, SessionExport, SpectrumKey,
};
use graphio_store::{load_session, save_session, Store, StoreConfig};
use std::hint::black_box;
use std::time::Instant;

/// Mat-vec probe: this many timed batches of `MATVEC_BATCH` calls each.
const MATVEC_BATCHES: usize = 21;
const MATVEC_BATCH: usize = 50;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// In-memory span recorder: a stack of open spans over one time base.
struct Tracer {
    base: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            base: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.base.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, parented to the innermost open
    /// span.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    fn to_json(&self) -> JsonValue {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                JsonValue::Object(vec![
                    ("name".into(), JsonValue::String(s.name.into())),
                    (
                        "parent".into(),
                        s.parent
                            .map_or(JsonValue::Null, |p| JsonValue::Number(p as f64)),
                    ),
                    ("start_us".into(), JsonValue::Number(s.start_us)),
                    ("end_us".into(), JsonValue::Number(s.end_us)),
                ])
            })
            .collect();
        JsonValue::Array(spans)
    }
}

struct Args {
    graph: String,
    memories: Vec<usize>,
    body_out: String,
    store_dir: String,
    hot_reps: usize,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |name: &str| flag(name).ok_or(format!("missing {name}"));
    let memories = need("--memories")?
        .split(',')
        .map(|m| m.parse().map_err(|_| format!("bad memory {m:?}")))
        .collect::<Result<Vec<usize>, _>>()?;
    let hot_reps = match flag("--hot-reps") {
        Some(raw) => raw.parse().map_err(|_| format!("bad --hot-reps {raw:?}"))?,
        None => 0,
    };
    Ok(Args {
        graph: need("--graph")?.to_string(),
        memories,
        body_out: need("--body-out")?.to_string(),
        store_dir: need("--store-dir")?.to_string(),
        hot_reps,
    })
}

fn parse_graph(text: &str) -> Result<CompGraph, String> {
    let el = EdgeListGraph::from_json(text).map_err(|e| format!("graph JSON: {e}"))?;
    CompGraph::try_from(el).map_err(|e| format!("invalid graph: {e}"))
}

/// LRU and Bélády on the natural order at every memory — the simulation
/// half of every analysis row.
fn simulate_rows(g: &CompGraph, memories: &[usize]) -> u64 {
    let order = natural_order(g);
    let mut io = 0;
    for &m in memories {
        for policy in [Policy::Lru, Policy::Belady] {
            io += simulate(g, &order, m, policy, 0).map_or(0, |r| r.io());
        }
    }
    io
}

fn cpu_seconds() -> f64 {
    graphio_obs::procfs::process_snapshot()
        .map_or(0.0, |p| p.cpu_user_seconds + p.cpu_system_seconds)
}

/// Counters measured where the work happens, printed beside the spans.
#[derive(Default)]
struct Counts {
    lanczos_sweeps: usize,
    lanczos_solves: usize,
    matvecs: u64,
    mincut_vertices: usize,
    mincut_cpu_s: f64,
    matvec_us: f64,
    n: usize,
    nnz: usize,
}

fn run(args: &Args) -> Result<(), String> {
    graphio_linalg::set_threads(1);
    let text = std::fs::read_to_string(&args.graph).map_err(|e| format!("{}: {e}", args.graph))?;
    let spec = AnalyzeSpec::sweep(args.memories.clone());
    let mut t = Tracer::new();
    let mut c = Counts::default();

    let (analyzer, fp, body, loaded) = t.span("analysis", |t| -> Result<_, String> {
        let g = t.span("graph.parse", |_| parse_graph(&text))?;
        let fp = t.span("graph.fingerprint", |_| fingerprint(&g));
        let n = g.n();
        let analyzer = OwnedAnalyzer::from_graph(g);
        let opts = BoundOptions::for_graph_size(n);
        t.span("spectral.laplacian", |_| {
            for kind in LaplacianKind::ALL {
                analyzer.laplacian(kind);
            }
        });

        // Lanczos solves run directly so their sweep counts are visible;
        // the spectra are then handed to the session under the engine's
        // own cache key, exactly as a stored session would be.
        let mut solved = SessionExport::default();
        for kind in LaplacianKind::ALL {
            t.span("linalg.eigensolve", |_| -> Result<(), String> {
                let before = sparse_matvec_count();
                match opts.resolved_method(n) {
                    EigenMethod::Lanczos(lopts) => {
                        let lap = analyzer.laplacian(kind);
                        let r = lanczos::smallest_eigenvalues(lap, opts.h.min(n), &lopts)
                            .map_err(|e| format!("lanczos: {e}"))?;
                        c.lanczos_sweeps += r.sweeps;
                        c.lanczos_solves += 1;
                        solved
                            .spectra
                            .push((SpectrumKey::for_options(kind, &opts, n), r.values));
                    }
                    _ => {
                        analyzer
                            .spectrum(kind, &opts)
                            .map_err(|e| format!("eigensolve: {e}"))?;
                    }
                }
                c.matvecs += sparse_matvec_count() - before;
                Ok(())
            })?;
        }
        analyzer.import(&solved);

        t.span("spectral.bound", |_| -> Result<(), String> {
            for &m in &args.memories {
                analyzer.bound(m, &opts).map_err(|e| e.to_string())?;
                analyzer
                    .bound_original(m, &opts)
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
        let solves = analyzer.stats().spectrum_misses as usize;
        if solves + c.lanczos_solves != LaplacianKind::ALL.len() {
            return Err(format!(
                "imported spectra were not reused: {solves} engine solves after {} direct",
                c.lanczos_solves
            ));
        }

        let cut = t.span("baselines.mincut", |_| {
            let cpu = cpu_seconds();
            let cut = analyzer.min_cut(&ConvexMinCutOptions::for_graph_size(n));
            c.mincut_cpu_s = cpu_seconds() - cpu;
            cut
        });
        c.mincut_vertices = cut.vertices_evaluated;
        black_box(t.span("pebble.simulate", |_| {
            simulate_rows(analyzer.graph(), &args.memories)
        }));
        let body = t.span("service.doc", |_| analysis_body(&analyzer, &spec));

        let store = t.span("store.open", |_| {
            Store::open(&args.store_dir, StoreConfig::default()).map_err(|e| format!("store: {e}"))
        })?;
        t.span("store.save", |_| save_session(&store, fp, &analyzer))
            .map_err(|e| format!("store save: {e}"))?;
        let loaded = t
            .span("store.load", |_| load_session(&store, fp))
            .map_err(|e| format!("store load: {e}"))?
            .ok_or("store load: session missing after save")?;
        Ok((analyzer, fp, body, loaded))
    })?;
    if analysis_body(&loaded, &spec) != body {
        return Err("store round trip changed the analysis document".into());
    }
    std::fs::write(&args.body_out, &body).map_err(|e| format!("{}: {e}", args.body_out))?;

    for _ in 0..args.hot_reps {
        t.span("hit", |t| -> Result<(), String> {
            let g = t.span("graph.parse", |_| parse_graph(&text))?;
            if t.span("graph.fingerprint", |_| fingerprint(&g)) != fp {
                return Err("fingerprint changed between parses".into());
            }
            black_box(t.span("pebble.simulate", |_| simulate_rows(&g, &args.memories)));
            if t.span("service.doc", |_| analysis_body(&analyzer, &spec)) != body {
                return Err("warm analysis document differs from the cold one".into());
            }
            Ok(())
        })?;
    }

    let lap = analyzer.laplacian(LaplacianKind::Normalized);
    c.n = lap.dim();
    c.nnz = lap.nnz();
    let x: Vec<f64> = (0..c.n).map(|i| 1.0 / (i + 1) as f64).collect();
    let mut y = vec![0.0; c.n];
    let mut per_call_us = t.span("probe.matvec", |t| {
        (0..MATVEC_BATCHES)
            .map(|_| {
                let start = t.now_us();
                for _ in 0..MATVEC_BATCH {
                    lap.matvec(black_box(&x), &mut y);
                    black_box(&mut y);
                }
                (t.now_us() - start) / MATVEC_BATCH as f64
            })
            .collect::<Vec<f64>>()
    });
    per_call_us.sort_by(f64::total_cmp);
    c.matvec_us = per_call_us[MATVEC_BATCHES / 2];

    let num = |v: f64| JsonValue::Number(v);
    let doc = JsonValue::Object(vec![
        ("graph".into(), JsonValue::String(args.graph.clone())),
        ("n".into(), num(c.n as f64)),
        ("nnz".into(), num(c.nnz as f64)),
        ("lanczos_sweeps".into(), num(c.lanczos_sweeps as f64)),
        ("matvecs".into(), num(c.matvecs as f64)),
        ("matvec_us".into(), num(c.matvec_us)),
        ("mincut_vertices".into(), num(c.mincut_vertices as f64)),
        ("mincut_cpu_s".into(), num(c.mincut_cpu_s)),
        ("spans".into(), t.to_json()),
    ]);
    println!("{doc}");
    Ok(())
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    if let Err(e) = result {
        eprintln!("perfbench-layers: {e}");
        std::process::exit(1);
    }
}
