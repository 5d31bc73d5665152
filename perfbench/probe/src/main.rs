//! `tce-perfprobe`: the in-process half of the perfbench harness.
//!
//! ```text
//! tce-perfprobe run     --requests R.tsv --out O.jsonl --work DIR --traced 0|1
//!                       [--seconds S] [--round-len N]
//! tce-perfprobe recheck --requests R.tsv --work DIR
//! tce-perfprobe audit   DIR...
//! ```
//!
//! `run` replays a request list through the public library API in the
//! order `tce optimize` calls it (cost model, lint, parse, lower, cache
//! key, cache lookup, plan, extract, validate, cache store, render,
//! explain) and times each call from outside. With `--traced 1` every call
//! is a span carrying its request id and parent, kept in memory; all
//! records are written to `--out` when the run ends. A traced run also
//! times a second, single-threaded search of every searched request,
//! outside the request. Requests come in rounds of `--round-len`; the run
//! stops at the first round boundary after `--seconds`.
//!
//! `recheck` re-verifies saved `--json` plans with the full check
//! registry, the cost model, and the memory limit. `audit` prints the sum
//! of `PlanCache::stats()` over cache directories.
//!
//! Every command first installs the full check registry, as `tce`'s
//! `main` does, and proves that it is the plan-cache load gate: a
//! cost-corrupted entry in the probe's own scratch cache must be evicted.
//!
//! Request lines are tab-separated:
//! `id  file  procs  mem_gb|-  text|json  off|fresh|<cache dir>  flags|-`
//! where flags is a comma list of `replication` and `unrelated-rotation`;
//! `recheck` lines carry the saved plan's path as an eighth column.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use serde_json::{Number, Value};
use tensor_contraction_opt::check::{check_plan, install};
use tensor_contraction_opt::core::portfolio::plan as plan_with;
use tensor_contraction_opt::core::{
    build_report, cache_key, explain, extract_plan, render_report, validate_plan, ExecutionPlan,
    Optimized, OptimizerConfig, PlanCache,
};
use tensor_contraction_opt::cost::units::PAPER_MB;
use tensor_contraction_opt::cost::{CostModel, MachineModel};
use tensor_contraction_opt::expr::{parse, ExprTree};
use tensor_contraction_opt::lint::{lint_source, LintOptions};
use tensor_contraction_opt::obs::names;
use tensor_contraction_opt::opmin::lower_program;

/// Where a request's level-2 plan cache lives.
enum CacheMode {
    /// `--no-plan-cache`.
    Off,
    /// A new, empty directory per request: a cold miss, then a store.
    Fresh,
    /// One directory shared by every request.
    Shared(PathBuf),
}

/// One `tce optimize` request.
struct Request {
    id: String,
    file: String,
    procs: u32,
    mem_gb: Option<f64>,
    json: bool,
    replication: bool,
    unrelated_rotation: bool,
    cache: CacheMode,
    /// `recheck` only: the saved `--json` plan.
    plan_path: Option<String>,
}

fn parse_request(line: &str) -> Result<Request, String> {
    let cols: Vec<&str> = line.split('\t').collect();
    if cols.len() < 7 {
        return Err(format!("request line has {} columns, expected 7+: {line:?}", cols.len()));
    }
    let procs = cols[2].parse().map_err(|_| format!("bad procs {:?}", cols[2]))?;
    let mem_gb = match cols[3] {
        "-" => None,
        g => Some(g.parse().map_err(|_| format!("bad mem_gb {g:?}"))?),
    };
    let json = match cols[4] {
        "json" => true,
        "text" => false,
        m => return Err(format!("bad mode {m:?}")),
    };
    let cache = match cols[5] {
        "off" => CacheMode::Off,
        "fresh" => CacheMode::Fresh,
        dir => CacheMode::Shared(PathBuf::from(dir)),
    };
    let flags: Vec<&str> = cols[6].split(',').collect();
    Ok(Request {
        id: cols[0].to_string(),
        file: cols[1].to_string(),
        procs,
        mem_gb,
        json,
        replication: flags.contains(&"replication"),
        unrelated_rotation: flags.contains(&"unrelated-rotation"),
        cache,
        plan_path: cols.get(7).map(|s| s.to_string()),
    })
}

fn read_requests(path: &str) -> Result<Vec<Request>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    text.lines().filter(|l| !l.is_empty()).map(parse_request).collect()
}

/// `tce`'s `cost_model`: the Itanium cluster with an optional per-node
/// memory override.
fn cost_model(req: &Request) -> Result<CostModel, String> {
    let mut machine = MachineModel::itanium_cluster();
    if let Some(gb) = req.mem_gb {
        machine.mem_per_node_bytes = (gb * 1024.0 * PAPER_MB) as u64;
    }
    CostModel::for_square(machine, req.procs)
        .ok_or_else(|| format!("{} is not a perfect square", req.procs))
}

/// `tce`'s `opt_config` for the flags the benchmark uses.
fn opt_config(req: &Request) -> OptimizerConfig {
    OptimizerConfig {
        allow_replication: req.replication,
        allow_unrelated_rotation: req.unrelated_rotation,
        ..Default::default()
    }
}

/// One finished call: `(name, start ns, end ns)` from the request start.
type Span = (&'static str, u64, u64);

/// Span recorder for one request. Off, it only reads the clock once at
/// each end of the request.
struct Trace {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    fn new(on: bool) -> Self {
        Self { on, epoch: Instant::now(), spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    fn record(&mut self, name: &'static str, start: u64) {
        if self.on {
            let end = self.now();
            self.spans.push((name, start, end));
        }
    }
}

/// What one request produced.
#[derive(Default)]
struct Served {
    /// The CLI's exit code: 0, or 1 for a runtime error.
    status: u8,
    error: Option<String>,
    lint_rejected: bool,
    /// `hit`, `miss`, or `off`.
    cache: &'static str,
    evicted: Option<&'static str>,
    store_failed: bool,
    /// Counters of the search this request ran (empty on a warm hit).
    counters: Vec<(&'static str, u64)>,
    /// What `tce optimize` would print on stdout.
    stdout: String,
    /// Kept for the work done after the request span closes.
    tail: Option<(ExprTree, CostModel, OptimizerConfig, ExecutionPlan)>,
}

impl Served {
    fn fail(mut self, e: String) -> Self {
        self.status = 1;
        self.error = Some(e);
        self
    }
}

/// `cmd_optimize`, call for call, with each call timed from outside.
fn serve(req: &Request, cache: Option<&PlanCache>, tr: &mut Trace) -> Served {
    let mut out =
        Served { cache: if cache.is_some() { "miss" } else { "off" }, ..Default::default() };
    let t = tr.now();
    let cm = cost_model(req);
    tr.record("cost.model", t);
    let cm = match cm {
        Ok(cm) => cm,
        Err(e) => return out.fail(e),
    };

    let t = tr.now();
    let lint = std::fs::read_to_string(&req.file)
        .map_err(|e| format!("reading {}: {e}", req.file))
        .and_then(|src| {
            lint_source(
                &src,
                &LintOptions { file: Some(&req.file), cm: Some(&cm), ..LintOptions::default() },
            )
        })
        .map(|report| {
            let rendered =
                if report.diagnostics.is_empty() { String::new() } else { report.render_human() };
            (report.is_clean(), report.error_count(), rendered)
        });
    tr.record("lint", t);
    match lint {
        Err(e) => return out.fail(e),
        Ok((false, errors, _)) => {
            out.lint_rejected = true;
            return out.fail(format!("{errors} lint error(s) in {}", req.file));
        }
        Ok(_) => {}
    }

    let t = tr.now();
    let prog = std::fs::read_to_string(&req.file)
        .map_err(|e| format!("reading {}: {e}", req.file))
        .and_then(|src| parse(&src).map_err(|e| e.to_string()));
    tr.record("expr.parse", t);
    let prog = match prog {
        Ok(p) => p,
        Err(e) => return out.fail(e),
    };
    let t = tr.now();
    let tree = lower_program(&prog)
        .map_err(|e| e.to_string())
        .and_then(|seq| seq.to_tree().map_err(|e| e.to_string()));
    tr.record("opmin.lower", t);
    let tree = match tree {
        Ok(tree) => tree,
        Err(e) => return out.fail(e),
    };
    let cfg = opt_config(req);

    let mut key = None;
    let mut cached = None;
    if let Some(c) = cache {
        let t = tr.now();
        key = cache_key(&tree, &cm, &cfg);
        tr.record("core.cache_key", t);
        if let Some(k) = &key {
            let t = tr.now();
            let found = c.lookup(&tree, &cm, k);
            tr.record("core.cache_lookup", t);
            out.evicted = found.evicted;
            cached = found.run;
        }
    }
    let warm = cached.is_some();
    let (opt, plan): (Optimized, ExecutionPlan) = match cached {
        Some(run) => {
            out.cache = "hit";
            (run.opt, run.plan)
        }
        None => {
            let t = tr.now();
            let planned = plan_with(&tree, &cm, &cfg);
            tr.record("core.plan", t);
            let opt = match planned {
                Ok(p) => p.opt,
                Err(e) => return out.fail(e.to_string()),
            };
            out.counters = opt.counters.iter().collect();
            let t = tr.now();
            let plan = extract_plan(&tree, &opt);
            tr.record("core.extract", t);
            let t = tr.now();
            let valid = validate_plan(&tree, &plan);
            tr.record("check.validate", t);
            if let Err(e) = valid {
                return out.fail(e);
            }
            if let (Some(c), Some(k)) = (cache, &key) {
                let t = tr.now();
                let stored = c.store(&tree, k, &plan, &opt);
                tr.record("core.cache_store", t);
                out.store_failed = stored.is_err();
            }
            (opt, plan)
        }
    };

    let t = tr.now();
    let mut text = String::new();
    if opt.output_redist_cost > 0.0 {
        let _ = writeln!(
            text,
            "(final output redistribution into the requested layout: {:.1} s)",
            opt.output_redist_cost
        );
    }
    if req.json {
        let rendered = serde_json::from_str::<Value>(&plan.to_json())
            .map_err(|e| format!("internal plan JSON error: {e}"))
            .and_then(|mut v| {
                v.insert("observability", observability_json(&opt));
                serde_json::to_string_pretty(&v).map_err(|e| e.to_string())
            });
        tr.record("core.render", t);
        match rendered {
            Ok(s) => {
                text.push_str(&s);
                text.push('\n');
            }
            Err(e) => return out.fail(e),
        }
    } else {
        text.push_str(&render_report(&build_report(&tree, &plan, &cm)));
        tr.record("core.render", t);
        if warm {
            if let Some(k) = &key {
                let _ = writeln!(
                    text,
                    "\ncache: level-2 warm hit (canonical hash {:032x}); plan revalidated on \
                     load — run `tce explain` for the per-node decision record",
                    k.expr_hash
                );
            }
        } else {
            let t = tr.now();
            let e = explain(&tree, &cm, &cfg);
            tr.record("core.explain", t);
            if let Ok(e) = e {
                let _ = writeln!(text, "\n{}", e.text);
            }
        }
        let t = tr.now();
        text.push_str("\nplan:\n");
        for step in &plan.steps {
            let fusion = if step.result_fusion.is_empty() {
                String::new()
            } else {
                format!(" fused ({})", tree.space.render(step.result_fusion.as_slice()))
            };
            let _ = writeln!(
                text,
                "  {} in {}{} — step comm {:.3} s",
                step.result_name,
                step.result_dist.render(&tree.space),
                fusion,
                step.step_comm()
            );
        }
        tr.record("core.render", t);
    }
    out.stdout = text;
    out.tail = Some((tree, cm, cfg, plan));
    out
}

/// The `observability` section `tce optimize --json` appends.
fn observability_json(opt: &Optimized) -> Value {
    let num = |v: u64| Value::Number(Number::UInt(u128::from(v)));
    let counters =
        Value::Object(opt.counters.iter().map(|(name, v)| (name.to_string(), num(v))).collect());
    let nodes = Value::Array(
        opt.stats
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".to_string(), Value::String(s.name.clone())),
                    ("candidates".to_string(), num(s.candidates)),
                    ("pruned_inferior".to_string(), num(s.pruned_inferior)),
                    ("pruned_memory".to_string(), num(s.pruned_memory)),
                    ("redist_fallbacks".to_string(), num(s.redist_fallbacks)),
                    ("live".to_string(), num(s.live as u64)),
                ])
            })
            .collect(),
    );
    Value::Object(vec![("counters".to_string(), counters), ("nodes".to_string(), nodes)])
}

/// JSON string literal.
fn quote(s: &str) -> String {
    let mut q = String::with_capacity(s.len() + 2);
    q.push('"');
    for c in s.chars() {
        match c {
            '"' => q.push_str("\\\""),
            '\\' => q.push_str("\\\\"),
            '\n' => q.push_str("\\n"),
            '\t' => q.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(q, "\\u{:04x}", c as u32);
            }
            c => q.push(c),
        }
    }
    q.push('"');
    q
}

/// FNV-1a 64 of the rendered stdout, so the harness can compare it with
/// the spawned binary's bytes without shipping the text.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The plan's steps twice: `[name, "<d1,d2>", "fusion"]` as the text
/// report renders them and `[name, d1, d2, [fusion ids]]` as `--json`
/// emits them.
fn steps_json(tree: &ExprTree, plan: &ExecutionPlan) -> (String, String) {
    let id = |o: Option<tensor_contraction_opt::expr::IndexId>| {
        o.map_or_else(|| "null".to_string(), |i| i.0.to_string())
    };
    let mut text = Vec::new();
    let mut nums = Vec::new();
    for s in &plan.steps {
        let fusion = tree.space.render(s.result_fusion.as_slice());
        text.push(format!(
            "[{},{},{}]",
            quote(&s.result_name),
            quote(&s.result_dist.render(&tree.space)),
            quote(if s.result_fusion.is_empty() { "" } else { &fusion })
        ));
        let ids: Vec<String> = s.result_fusion.as_slice().iter().map(|i| i.0.to_string()).collect();
        nums.push(format!(
            "[{},{},{},[{}]]",
            quote(&s.result_name),
            id(s.result_dist.d1),
            id(s.result_dist.d2),
            ids.join(",")
        ));
    }
    (format!("[{}]", text.join(",")), format!("[{}]", nums.join(",")))
}

/// The full check registry with the cost model and the request's memory
/// limit, as the plan-cache load gate runs it.
fn recheck(tree: &ExprTree, cm: &CostModel, cfg: &OptimizerConfig, plan: &ExecutionPlan) -> String {
    let limit = cfg.mem_limit_words.unwrap_or_else(|| cm.mem_limit_words());
    match check_plan(tree, plan, Some(cm), Some(limit)).to_result() {
        Ok(()) => "ok".to_string(),
        Err(e) => e,
    }
}

fn load_tree(file: &str) -> Result<ExprTree, String> {
    let src = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
    let prog = parse(&src).map_err(|e| e.to_string())?;
    lower_program(&prog).map_err(|e| e.to_string())?.to_tree().map_err(|e| e.to_string())
}

fn child_mut<'a>(v: &'a mut Value, key: &str) -> Option<&'a mut Value> {
    let Value::Object(fields) = v else { return None };
    fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Add `delta` to the number at `key` of `v`.
fn shift(v: &mut Value, key: &str, delta: f64) -> Option<()> {
    let slot = child_mut(v, key)?;
    let x = slot.as_f64()?;
    *slot = Value::Number(Number::Float(x + delta));
    Some(())
}

/// Shift the first positive operand rotation cost of a stored entry and
/// both headline totals by `delta`, keeping the step ledger summing.
fn corrupt_costs(entry: &mut Value, delta: f64) -> Option<()> {
    let plan = child_mut(entry, "plan")?;
    let Value::Array(steps) = child_mut(plan, "steps")? else { return None };
    let op = steps.iter_mut().find_map(|step| {
        let Value::Array(ops) = child_mut(step, "operands")? else { return None };
        ops.iter_mut()
            .find(|op| op.get("rotate_cost").and_then(Value::as_f64).is_some_and(|x| x > 0.0))
    })?;
    shift(op, "rotate_cost", delta)?;
    shift(plan, "comm_cost", delta)?;
    shift(entry, "comm_cost", delta)
}

/// Prove the cache load gate is the full registry: store a real entry in
/// a scratch cache, shift one rotation cost and both headline totals by
/// the same amount (the step ledger still sums, so only the cost passes
/// that recompute every cost from the live model can tell), and require
/// the lookup to evict it.
fn gate_selftest(work: &Path, file: &str) -> Result<(), String> {
    let req = Request {
        id: "gate".into(),
        file: file.into(),
        procs: 16,
        mem_gb: Some(4.0),
        json: true,
        replication: false,
        unrelated_rotation: false,
        cache: CacheMode::Off,
        plan_path: None,
    };
    let dir = work.join("gate-selftest");
    let _ = std::fs::remove_dir_all(&dir);
    let result = (|| {
        let tree = load_tree(file)?;
        let cm = cost_model(&req)?;
        let cfg = opt_config(&req);
        let key = cache_key(&tree, &cm, &cfg).ok_or("gate request is not cacheable")?;
        let opt = plan_with(&tree, &cm, &cfg).map_err(|e| e.to_string())?.opt;
        let plan = extract_plan(&tree, &opt);
        let cache = PlanCache::at(&dir);
        cache.store(&tree, &key, &plan, &opt)?;
        let path = dir.join(key.file_name());
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let mut entry: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        corrupt_costs(&mut entry, 1.0).ok_or("gate entry has no rotation cost to corrupt")?;
        let corrupted = serde_json::to_string_pretty(&entry).map_err(|e| e.to_string())?;
        std::fs::write(&path, corrupted).map_err(|e| e.to_string())?;
        let outcome = cache.lookup(&tree, &cm, &key);
        if outcome.run.is_some() {
            return Err("a cost-corrupted cache entry was served: the load gate is not the \
                        full check registry"
                .into());
        }
        if outcome.evicted != Some(names::CACHE_EVICT_PLAN) {
            return Err(format!(
                "cost-corrupted entry evicted for {:?}, expected {}",
                outcome.evicted,
                names::CACHE_EVICT_PLAN
            ));
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result.map_err(|e| format!("gate self-test: {e}"))
}

struct Opts {
    requests: String,
    out: String,
    work: PathBuf,
    traced: bool,
    seconds: f64,
    round_len: usize,
    gate_file: String,
    dirs: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        requests: String::new(),
        out: String::new(),
        work: PathBuf::from("."),
        traced: false,
        seconds: 0.0,
        round_len: 1,
        gate_file: String::new(),
        dirs: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().ok_or_else(|| format!("missing value for {a}"));
        match a.as_str() {
            "--requests" => o.requests = val()?,
            "--out" => o.out = val()?,
            "--work" => o.work = PathBuf::from(val()?),
            "--traced" => o.traced = val()? == "1",
            "--seconds" => o.seconds = val()?.parse().map_err(|_| "bad --seconds")?,
            "--round-len" => o.round_len = val()?.parse().map_err(|_| "bad --round-len")?,
            "--gate-file" => o.gate_file = val()?,
            other if !other.starts_with("--") => o.dirs.push(other.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(o)
}

fn cmd_run(o: &Opts) -> Result<(), String> {
    let requests = read_requests(&o.requests)?;
    let mut records = Vec::with_capacity(requests.len());
    let start = Instant::now();
    for (n, req) in requests.iter().enumerate() {
        if n > 0 && n % o.round_len.max(1) == 0 && start.elapsed().as_secs_f64() >= o.seconds {
            break;
        }
        let fresh = o.work.join(format!("probe-cache-{n}"));
        let cache = match &req.cache {
            CacheMode::Off => None,
            CacheMode::Fresh => {
                let _ = std::fs::remove_dir_all(&fresh);
                Some(PlanCache::at(&fresh))
            }
            CacheMode::Shared(dir) => Some(PlanCache::at(dir)),
        };
        let mut tr = Trace::new(o.traced);
        let t0 = Instant::now();
        let served = serve(req, cache.as_ref(), &mut tr);
        let total_ns = t0.elapsed().as_nanos() as u64;
        std::hint::black_box(&served.stdout);
        // Outside the request: the single-threaded search for the thread
        // speed-up, and the full-registry re-check of the returned plan.
        let mut serial_ns = None;
        let mut check = "none".to_string();
        let mut check_ns = 0;
        let mut steps = ("[]".to_string(), "[]".to_string());
        let mut comm = "null".to_string();
        if let Some((tree, cm, cfg, plan)) = &served.tail {
            if o.traced && !served.counters.is_empty() {
                let serial_cfg = OptimizerConfig { threads: 1, ..cfg.clone() };
                let t = Instant::now();
                let r = plan_with(tree, cm, &serial_cfg);
                serial_ns = Some(t.elapsed().as_nanos() as u64);
                std::hint::black_box(&r);
            }
            let t = Instant::now();
            check = recheck(tree, cm, cfg, plan);
            check_ns = t.elapsed().as_nanos() as u64;
            steps = steps_json(tree, plan);
            comm = format!("{:?}", plan.comm_cost);
        }
        if matches!(req.cache, CacheMode::Fresh) {
            let _ = std::fs::remove_dir_all(&fresh);
        }
        let counters: Vec<String> =
            served.counters.iter().map(|(k, v)| format!("{}:{v}", quote(k))).collect();
        let spans: Vec<String> = tr
            .spans
            .iter()
            .enumerate()
            .map(|(i, (name, s, e))| format!("[{},{},0,{s},{e}]", quote(name), i + 1))
            .collect();
        let mut rec = String::new();
        let _ = write!(
            rec,
            "{{\"id\":{},\"seq\":{n},\"status\":{},\"error\":{},\"lint_rejected\":{},\
             \"cache\":\"{}\",\"evicted\":{},\"store_failed\":{},\"comm\":{comm},\
             \"steps_text\":{},\"steps_json\":{},\"stdout_fnv\":\"{:016x}\",\"recheck\":{},\
             \"recheck_ns\":{check_ns},\"total_ns\":{total_ns},\"serial_plan_ns\":{},\"counters\":{{{}}},\
             \"spans\":[[\"request\",0,null,0,{}]{}{}]}}",
            quote(&req.id),
            served.status,
            served.error.as_deref().map_or("null".to_string(), quote),
            served.lint_rejected,
            served.cache,
            served.evicted.map_or("null".to_string(), quote),
            served.store_failed,
            steps.0,
            steps.1,
            fnv1a(served.stdout.as_bytes()),
            quote(&check),
            serial_ns.map_or("null".to_string(), |v| v.to_string()),
            counters.join(","),
            if o.traced { total_ns } else { 0 },
            if spans.is_empty() { "" } else { "," },
            spans.join(","),
        );
        records.push(rec);
    }
    let mut text = records.join("\n");
    text.push('\n');
    std::fs::write(&o.out, text).map_err(|e| format!("writing {}: {e}", o.out))
}

fn cmd_recheck(o: &Opts) -> Result<(), String> {
    let mut bad = 0;
    for req in read_requests(&o.requests)? {
        let path = req.plan_path.as_deref().ok_or("recheck line without a plan path")?;
        let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let plan = ExecutionPlan::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
        let tree = load_tree(&req.file)?;
        let cm = cost_model(&req)?;
        let verdict = recheck(&tree, &cm, &opt_config(&req), &plan);
        if verdict != "ok" {
            bad += 1;
        }
        println!("{}\t{}", req.id, verdict.replace('\n', " | "));
    }
    if bad > 0 {
        return Err(format!("{bad} plan(s) failed the full check registry"));
    }
    Ok(())
}

fn cmd_audit(o: &Opts) -> Result<(), String> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for dir in &o.dirs {
        for (name, v) in PlanCache::at(dir).stats().counters {
            match totals.iter_mut().find(|(n, _)| *n == name) {
                Some((_, t)) => *t += v,
                None => totals.push((name, v)),
            }
        }
    }
    let fields: Vec<String> = totals.iter().map(|(k, v)| format!("{}:{v}", quote(k))).collect();
    println!("{{{}}}", fields.join(","));
    Ok(())
}

fn main() -> ExitCode {
    // As `tce`'s `main` does: without it, `validate_plan` and the cache
    // load gate fall back to the weaker inline checks.
    install();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: tce-perfprobe run|recheck|audit ...");
        return ExitCode::from(2);
    };
    let result = parse_opts(rest).and_then(|o| match cmd.as_str() {
        "run" | "recheck" => {
            gate_selftest(&o.work, &o.gate_file)?;
            if cmd == "run" {
                cmd_run(&o)
            } else {
                cmd_recheck(&o)
            }
        }
        "audit" => cmd_audit(&o),
        other => Err(format!("unknown command {other}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tce-perfprobe: {e}");
            ExitCode::FAILURE
        }
    }
}
