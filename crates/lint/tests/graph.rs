//! Planted-fixture corpus for the interprocedural rules L008–L010: each
//! test builds a synthetic workspace in a temp directory and runs the
//! full pass (`runner::run`), so detection is exercised end-to-end —
//! scanner → symbol index → call graph → reachability — not against
//! hand-built graphs. Positives assert the finding *and* its call chain;
//! negatives assert structurally similar safe code stays clean; one test
//! pins the documented false-positive class (name-based call resolution)
//! and the suppression-with-reason workflow that answers it.

use std::fs;
use std::path::{Path, PathBuf};

use rustwren_lint::runner::{run, Options, Outcome};
use rustwren_lint::Rule;

fn workspace(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rustwren-lint-graph-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("crates/core/src")).expect("mkdir");
    dir
}

fn plant(root: &Path, rel: &str, src: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    fs::write(path, src).expect("write fixture");
}

fn rule_hits(outcome: &Outcome, rule: Rule) -> Vec<String> {
    outcome
        .new_violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| format!("{}:{}: {}", v.file, v.line, v.message))
        .collect()
}

/// The blocking sink every L008 fixture reaches: a `crates/sim` `Event`
/// with a parking `wait`, mirroring the real kernel surface the rule
/// models.
const SIM_EVENT: &str = "pub struct Event;\n\
                         impl Event {\n\
                         \x20   pub fn wait(&self) { park_current(); }\n\
                         \x20   pub fn try_wait(&self) -> bool { false }\n\
                         }\n";

#[test]
fn l008_blocking_call_two_hops_from_spawn_light_closure() {
    let root = workspace("l008-pos");
    plant(&root, "crates/sim/src/sync.rs", SIM_EVENT);
    // closure → step_once → raw_wait → Event::wait: the sink is two
    // helper hops away from the closure, so a per-line rule (or a
    // direct-calls-only walk) could never connect them.
    plant(
        &root,
        "crates/core/src/light.rs",
        "fn schedule(kernel: &Kernel, ev: Event) {\n\
         \x20   kernel.spawn_light(move || {\n\
         \x20       step_once(&ev);\n\
         \x20       LightStep::Done\n\
         \x20   });\n\
         }\n\
         fn step_once(ev: &Event) {\n\
         \x20   raw_wait(ev);\n\
         }\n\
         fn raw_wait(ev: &Event) {\n\
         \x20   ev.wait();\n\
         }\n",
    );
    let outcome = run(&Options::new(&root));
    let hits = rule_hits(&outcome, Rule::L008);
    assert_eq!(hits.len(), 1, "expected one L008 finding: {hits:?}");
    let hit = &hits[0];
    assert!(
        hit.starts_with("crates/core/src/light.rs:2:"),
        "finding must anchor at the closure, where the restructuring \
         happens: {hit}"
    );
    for waypoint in ["step_once", "raw_wait", "Event::wait"] {
        assert!(
            hit.contains(waypoint),
            "call chain must name `{waypoint}`: {hit}"
        );
    }
}

#[test]
fn l008_try_polling_closure_is_clean() {
    let root = workspace("l008-neg");
    plant(&root, "crates/sim/src/sync.rs", SIM_EVENT);
    // Same shape, but the poll uses the non-parking probe and reports
    // back through `LightStep::Sleep` — the sanctioned restructuring the
    // positive fixture's message prescribes.
    plant(
        &root,
        "crates/core/src/light.rs",
        "fn schedule(kernel: &Kernel, ev: Event) {\n\
         \x20   kernel.spawn_light(move || {\n\
         \x20       if probe(&ev) { LightStep::Done } else { LightStep::Sleep(TICK) }\n\
         \x20   });\n\
         }\n\
         fn probe(ev: &Event) -> bool {\n\
         \x20   ev.try_wait()\n\
         }\n",
    );
    let outcome = run(&Options::new(&root));
    assert_eq!(rule_hits(&outcome, Rule::L008), Vec::<String>::new());
}

/// How the FaaS platform's activations are rooted. The lifecycle is an
/// `async fn` whose future is handed to `spawn_light` through
/// `task::light(..)`: the extractor roots L008 there, with no marker. The
/// lifecycle starts each body through a boxed closure the call graph cannot
/// follow, so a body is rooted where it is handed to `register_resumable`,
/// in whichever crate that is — and on, through the `async fn`s it awaits,
/// to whatever those await. Resumable COS operations end in `task::sleep`,
/// the leaf future, which is not a sink; their blocking drivers end in the
/// kernel's `sleep`, which is. What a body calls after it has asked for a
/// thread is out of the light poll's reach once — and only if — the call
/// site says so.
#[test]
fn l008_is_rooted_at_resumable_code_handed_to_the_kernel_and_the_platform() {
    let root = workspace("l008-body");
    plant(&root, "crates/sim/src/sync.rs", SIM_EVENT);
    plant(
        &root,
        "crates/sim/src/kernel.rs",
        "pub fn sleep(d: Duration) { park_current(); }\n\
         pub fn run_blocking<P: FnMut() -> LightStep>(poll: P) { sleep(d); }\n",
    );
    plant(
        &root,
        "crates/sim/src/task.rs",
        "pub fn sleep(d: Duration) -> Suspend { Suspend(d) }\n\
         pub fn thread() -> Suspend { Suspend(THREAD) }\n\
         pub fn light(fut: impl Future<Output = ()>) -> impl FnMut() -> LightStep { poller(fut) }\n\
         pub fn block_on<F: Future>(fut: F) { run_blocking(|| resume(fut)); }\n",
    );
    plant(
        &root,
        "crates/store/src/client.rs",
        "impl CosClient {\n\
         \x20   pub fn fetch(&self) -> Bytes { task::block_on(self.fetch_async()) }\n\
         \x20   pub async fn fetch_async(&self) -> Bytes { self.charge().await }\n\
         \x20   async fn charge(&self) { task::sleep(self.cost).await; }\n\
         }\n",
    );
    // `settle` blocks, reachable only through the lifecycle; the same call
    // behind a promotion that says so is not the lifecycle's business.
    let platform = |settle: &str| {
        format!(
            "impl Platform {{\n\
             \x20   fn register_action(&self, action: Arc<dyn Action>) {{\n\
             \x20       self.register_resumable(move |ctx, payload| {{\n\
             \x20           let action = action.clone();\n\
             \x20           async move {{\n\
             \x20               task::thread().await;\n\
             \x20               // lint: allow(L008) — runs on the thread asked for on the line above\n\
             \x20               action.invoke()\n\
             \x20           }}\n\
             \x20       }});\n\
             \x20   }}\n\
             \x20   fn invoke_in(&self, registered: Arc<Registered>) {{\n\
             \x20       self.kernel.spawn_light(name(), task::light(activation(self.clone(), registered)));\n\
             \x20   }}\n\
             }}\n\
             async fn activation(platform: Platform, registered: Arc<Registered>) {{\n\
             \x20   task::sleep(platform.cold_start).await;\n\
             \x20   (registered.start)(platform.ctx()).await;\n\
             {settle}\
             }}\n\
             fn settle(platform: &Platform) {{ platform.settled.wait(); }}\n"
        )
    };
    plant(
        &root,
        "crates/faas/src/platform.rs",
        &platform("\x20   settle(&platform);\n"),
    );
    plant(
        &root,
        "crates/workloads/src/bodies.rs",
        "fn register(faas: &Platform) {\n\
         \x20   faas.register_resumable(|ctx, payload| async move {\n\
         \x20       task::sleep(ctx.scaled(TICK)).await;\n\
         \x20   });\n\
         \x20   faas.register_resumable(|ctx, payload| async move {\n\
         \x20       ctx.ready.wait();\n\
         \x20   });\n\
         }\n\
         impl Action for Blocking {\n\
         \x20   fn invoke(&self) { self.ready.wait(); }\n\
         }\n",
    );
    let agent = |allow: &str| {
        format!(
            "fn deploy_agent(faas: &Platform) {{\n\
             \x20   faas.register_resumable(move |ctx, payload| {{\n\
             \x20       run_agent(ctx)\n\
             \x20   }});\n\
             }}\n\
             async fn run_agent(ctx: Ctx) {{\n\
             \x20   let blob = ctx.cos.fetch_async().await;\n\
             \x20   task::thread().await;\n\
             {allow}\
             \x20   execute_blocking(ctx)\n\
             }}\n\
             fn execute_blocking(ctx: &Ctx) {{ ctx.cos.fetch(); }}\n"
        )
    };
    let allow = "\x20   // lint: allow(L008) — runs on the thread asked for on the line above\n";
    plant(&root, "crates/core/src/job.rs", &agent(allow));
    let outcome = run(&Options::new(&root));
    let hits = rule_hits(&outcome, Rule::L008);
    assert_eq!(hits.len(), 2, "expected two L008 findings: {hits:?}");
    // The lifecycle, anchored at the `async fn`…
    assert!(
        hits[0].starts_with("crates/faas/src/platform.rs:16:"),
        "{}",
        hits[0]
    );
    for waypoint in ["activation", "settle", "Event::wait"] {
        assert!(hits[0].contains(waypoint), "no `{waypoint}`: {}", hits[0]);
    }
    // …and the careless body, anchored where it is registered: not the
    // polite one before it, nor the blocking action behind its promotion.
    assert!(
        hits[1].starts_with("crates/workloads/src/bodies.rs:5:"),
        "{}",
        hits[1]
    );
    let graph = outcome.graph.expect("the pass built a call graph");
    let roots: Vec<String> = graph
        .light_roots
        .iter()
        .map(|&i| format!("{}:{}", graph.defs[i].file, graph.defs[i].line))
        .collect();
    assert_eq!(
        roots,
        [
            "crates/core/src/job.rs:2",
            "crates/faas/src/platform.rs:3",
            "crates/faas/src/platform.rs:16",
            "crates/workloads/src/bodies.rs:2",
            "crates/workloads/src/bodies.rs:5",
        ]
    );
    assert!(outcome
        .notes
        .iter()
        .any(|n| n.contains("roots: 5 light root(s)")));
    // The agent's polls are in the graph, down to the leaf future…
    let id = |display: &str| {
        let found = graph.defs.iter().position(|d| d.display() == display);
        found.unwrap_or_else(|| panic!("no definition `{display}`"))
    };
    let calls = |from: &str, to: &str| graph.edges[id(from)].iter().any(|e| e.callee == id(to));
    assert!(calls("run_agent", "CosClient::fetch_async"));
    assert!(calls("CosClient::fetch_async", "CosClient::charge"));
    assert!(graph.edges[id("CosClient::charge")]
        .iter()
        .any(|e| graph.defs[e.callee].file == "crates/sim/src/task.rs"));
    // …and the blocking half is cut at the marked call only: without the
    // marker the kernel's `sleep` is one more sink the agent's root reaches.
    plant(&root, "crates/core/src/job.rs", &agent(""));
    let hits = rule_hits(&run(&Options::new(&root)), Rule::L008);
    assert_eq!(hits.len(), 3, "{hits:?}");
    let chain = [
        "crates/core/src/job.rs:2:",
        "run_agent",
        "execute_blocking",
        "block_on",
        "run_blocking",
        "sleep",
    ];
    assert!(chain.iter().all(|w| hits[0].contains(w)), "{hits:?}");
    // The lifecycle's own blocking call, moved behind a promotion that says
    // so, is the same cut.
    plant(&root, "crates/core/src/job.rs", &agent(allow));
    let promoted = format!("\x20   task::thread().await;\n{allow}\x20   settle(&platform);\n");
    plant(&root, "crates/faas/src/platform.rs", &platform(&promoted));
    let hits = rule_hits(&run(&Options::new(&root)), Rule::L008);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].starts_with("crates/workloads/src/bodies.rs:5:"));
}

/// An `async` block handed to `spawn_light` through `task::light` is a
/// root of its own, like a closure; a function with `impl` in its
/// signature is a definition like any other (the extractor used to open an
/// `impl` scope at its body and lose it).
#[test]
fn l008_sees_async_blocks_and_functions_with_impl_in_their_signature() {
    let root = workspace("l008-async-block");
    plant(&root, "crates/sim/src/sync.rs", SIM_EVENT);
    plant(
        &root,
        "crates/core/src/light.rs",
        "fn schedule(kernel: &Kernel, ev: Event) {\n\
         \x20   kernel.spawn_light(\"t\", task::light(async move {\n\
         \x20       pause(ev.clone(), || 3);\n\
         \x20   }));\n\
         }\n\
         fn pause(ev: Event, f: impl Fn() -> u32) -> impl Sized {\n\
         \x20   ev.wait();\n\
         }\n\
         fn after() {}\n",
    );
    let outcome = run(&Options::new(&root));
    let hits = rule_hits(&outcome, Rule::L008);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(
        hits[0].starts_with("crates/core/src/light.rs:2:") && hits[0].contains("pause"),
        "{}",
        hits[0]
    );
    let graph = outcome.graph.expect("the pass built a call graph");
    let names: Vec<String> = graph.defs.iter().map(|d| d.display()).collect();
    assert!(names.contains(&"pause".to_owned()), "{names:?}");
    assert!(names.contains(&"after".to_owned()), "{names:?}");
}

/// The documented false-positive class: name-based call resolution maps a
/// `std` map lookup (`shared.get(&key)`) onto *every* in-workspace `get`
/// impl, including one that blocks. The rule must fire (it cannot know
/// better), and an inline `allow` with a reason must silence it — this is
/// the reviewed-exemption workflow CONTRIBUTING prescribes for
/// over-approximation artifacts.
#[test]
fn l008_name_resolution_false_positive_needs_a_documented_allow() {
    let root = workspace("l008-fp");
    plant(&root, "crates/sim/src/sync.rs", SIM_EVENT);
    let closure = |allow: &str| {
        format!(
            "impl Cache {{\n\
             \x20   fn get(&self, key: &str) -> Option<Bytes> {{\n\
             \x20       self.ready.wait();\n\
             \x20       self.fetch(key)\n\
             \x20   }}\n\
             }}\n\
             fn schedule(kernel: &Kernel, shared: HashMap<String, u64>) {{\n\
             {allow}\
             \x20   kernel.spawn_light(move || {{\n\
             \x20       let _hit = shared.get(\"k\");\n\
             \x20       LightStep::Done\n\
             \x20   }});\n\
             }}\n"
        )
    };
    // Without the allow the artifact fires…
    plant(&root, "crates/core/src/light.rs", &closure(""));
    let outcome = run(&Options::new(&root));
    let hits = rule_hits(&outcome, Rule::L008);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].contains("Cache::get"), "{}", hits[0]);
    // …and the suppression-with-reason silences exactly it.
    plant(
        &root,
        "crates/core/src/light.rs",
        &closure(
            "\x20   // lint: allow(L008) — false positive: `shared` is a std\n\
             \x20   // HashMap; name-based resolution maps `.get(` onto the\n\
             \x20   // blocking Cache::get impl\n",
        ),
    );
    let outcome = run(&Options::new(&root));
    assert_eq!(rule_hits(&outcome, Rule::L008), Vec::<String>::new());
    assert_eq!(outcome.suppressed, 1);
}

#[test]
fn l009_panic_two_hops_from_hot_path_entry() {
    let root = workspace("l009");
    // `decode`'s panic is only a bug because `run_agent` is marked as an
    // agent hot path; the un-annotated `offline_tool` reaching the same
    // panic must not fire.
    plant(
        &root,
        "crates/core/src/agent.rs",
        "// lint: entry(hot_path)\n\
         fn run_agent(task: &Task) {\n\
         \x20   dispatch(task);\n\
         }\n\
         fn dispatch(task: &Task) {\n\
         \x20   decode(task);\n\
         }\n\
         fn decode(task: &Task) {\n\
         \x20   panic!(\"bad frame\");\n\
         }\n",
    );
    let outcome = run(&Options::new(&root));
    let hits = rule_hits(&outcome, Rule::L009);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(
        hits[0].starts_with("crates/core/src/agent.rs:9:"),
        "L009 anchors at the panic site: {}",
        hits[0]
    );
    assert!(
        hits[0].contains("run_agent") && hits[0].contains("dispatch"),
        "chain must run entry → dispatch → decode: {}",
        hits[0]
    );

    let root = workspace("l009-neg");
    plant(
        &root,
        "crates/core/src/agent.rs",
        "fn offline_tool(task: &Task) {\n\
         \x20   decode(task);\n\
         }\n\
         fn decode(task: &Task) {\n\
         \x20   panic!(\"bad frame\");\n\
         }\n",
    );
    let outcome = run(&Options::new(&root));
    assert_eq!(rule_hits(&outcome, Rule::L009), Vec::<String>::new());
}

#[test]
fn l010_wall_clock_leak_through_an_l001_allowed_file() {
    let root = workspace("l010");
    // The metrics file holds a reviewed per-file L001 exemption — its
    // *own* wall-clock use is fine. L010's job is the second-order leak:
    // a simulated path calling into it.
    plant(
        &root,
        "lint.toml",
        "[allow.L001]\n\"crates/core/src/metrics.rs\" = \"fixture: wall-clock reporting\"\n",
    );
    plant(
        &root,
        "crates/core/src/metrics.rs",
        "pub fn stamp_report() -> Instant {\n\
         \x20   Instant::now()\n\
         }\n",
    );
    let entry = |marker: &str| {
        format!(
            "{marker}fn replay_step(state: &mut State) {{\n\
             \x20   let _t = stamp_report();\n\
             }}\n"
        )
    };
    plant(
        &root,
        "crates/core/src/replay.rs",
        &entry("// lint: entry(sim_path)\n"),
    );
    let outcome = run(&Options::new(&root));
    let hits = rule_hits(&outcome, Rule::L010);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(
        hits[0].starts_with("crates/core/src/metrics.rs:2:")
            && hits[0].contains("replay_step")
            && hits[0].contains("stamp_report"),
        "L010 anchors at the allowed file's clock read with the leaking \
         chain: {}",
        hits[0]
    );
    // Without the sim_path marker the same code is only the (allowed)
    // per-file L001 story — no reachability finding.
    plant(&root, "crates/core/src/replay.rs", &entry(""));
    let outcome = run(&Options::new(&root));
    assert_eq!(rule_hits(&outcome, Rule::L010), Vec::<String>::new());
}
