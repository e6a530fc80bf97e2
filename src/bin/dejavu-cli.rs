//! dejavu-cli — drive the replay platform from the command line.
//!
//! ```text
//! dejavu-cli list
//! dejavu-cli run <workload> [seed]
//! dejavu-cli record <workload> <seed> <trace-file> [--metrics-out <file>]
//! dejavu-cli replay <workload> <seed> <trace-file> [--metrics-out <file>]
//! dejavu-cli profile <workload> <seed> <trace-file> [--out <dir>]
//!                    [--format chrome|folded|both] [--top <n>]
//! dejavu-cli trace inspect <trace-file>... [--dedup]  # block index, canonical JSON
//! dejavu-cli stats <workload> [seed]             # record+replay metrics JSON
//! dejavu-cli stats --fleet <addr>                # live fleet metrics JSON
//! dejavu-cli store put <dir> <workload> <seed> <trace-file>
//!                   [--policy <p>] [--no-verify] # ingest (verified by default)
//! dejavu-cli store get <dir> <entry-id> <out>    # the put file back, byte for byte
//! dejavu-cli store ls <dir>                      # catalog summary, one JSON/line
//! dejavu-cli store gc <dir>                      # drop unreferenced blocks
//! dejavu-cli store compact <dir>                 # move raw records onto the coder
//! dejavu-cli store stats <dir>                   # content-deterministic shape JSON
//! dejavu-cli neutrality <workload> [seed]        # telemetry on == off proof
//! dejavu-cli checkjson <file>                    # validate via crates/codec
//! dejavu-cli check <corpus-dir>                  # replay corpus vs policies
//! dejavu-cli corpus record <corpus-dir>          # (re)record the corpus
//! dejavu-cli dis <workload> [method-name] [--quick|--mega]
//! dejavu-cli fleet-serve <port> [--workers <n>]  # multi-session fleet server
//!                   [--fleet-token <t>] [--port-file <f>] [--store <dir>]
//! dejavu-cli fleet-shutdown <addr> <token>       # token-gated graceful stop
//! dejavu-cli debug <addr> open <workload> <seed> # host + record a session, print its id
//! dejavu-cli debug <addr> <session> '<json command>'  # one debugger command
//! ```
//!
//! Flags follow the subcommand name; each subcommand takes the ones
//! listed for it. An argument a subcommand does not take — a misspelled
//! flag, an extra positional, a seed that is not an integer — is a usage
//! error (exit 1).
//!
//! `fleet-serve` hosts ≥64 concurrent record/replay sessions behind one
//! framed binary RPC endpoint (`crates/fleet`, DESIGN.md §9) — the one
//! server. `debug` is its debugger front end: sessions outlive
//! connections, so one-shot calls compose into a dialogue
//! (`{"cmd":"break",…}`, `{"cmd":"continue"}`, `{"cmd":"stack","tid":0}`
//! …, the `debugger::protocol` command language). This is the platform's
//! one JSON door: `debug` parses its argument into a typed command, which
//! crosses the wire as a binary fleet message, and prints the typed
//! response as one JSON line. Both spellings are derived from each
//! message's layout line in `fleet::rpc` (`fleet::ParseJson`,
//! `fleet::PrintJson`). `stats --fleet` prints the server's session
//! counters and per-RPC latency histograms.
//!
//! Trace files are DJVB, the block-structured compressed format of
//! [`dejavu::encode_trace`] — the only format `record` writes and the
//! only one any subcommand reads back. `replay` verifies accuracy
//! against a fresh record of the same seed. `--metrics-out` writes the
//! run's canonical (sorted-key, timestamp-free, byte-deterministic)
//! metrics JSON.
//!
//! `--no-quicken` (any run-like subcommand, `check` included) disables
//! the quickened dispatch engine — runs are bit-identical, only slower.
//! `--no-mega` keeps quickening but disables tier 2, which retires the
//! passes of hot counting loops in closed form. These two flags are the
//! only ablation switches.
//! `dis --quick` prints the quickened `QOp` stream with fusion pc ranges;
//! `dis --mega` prints each loop head's closed form — its induction local,
//! guard, other locals' increments, guard position and cycles a pass — or
//! `stays tier 1`. `stats` adds each run's tier-2 counters under `mega`:
//! `tier_ups`, `entries`, `closed_iters` (passes retired in closed form)
//! and `gate_misses`.
//!
//! Exit codes (uniform across every subcommand, carried by [`CliError`]):
//! `0` success / accurate replay / corpus pass, `1` usage, I/O, or
//! corrupt-input error, `2` replay divergence (desync), corpus policy
//! violation, or neutrality violation.
//!
//! `check` replays every `<stem>.djvb` + `<stem>.policy.json` pair in the
//! corpus directory ([`dejavu_repro::corpus`]); on a divergence it
//! minimizes the failing workload spec with the qc tape shrinker and
//! prints a canonical-JSON repro blob.
//!
//! `store` subcommands drive the content-addressed trace store
//! (`crates/store`, DESIGN.md §11). `store put` replays the trace before
//! cataloging and records the verified fingerprint (exit 2 if it
//! diverges from a fresh record); `--no-verify` ingests with fingerprint
//! 0, the fleet-ingest semantics. A trace file has one spelling, so a
//! re-framed copy of a stored run (a padded varint, a paranoid byte of 2)
//! is refused like any corrupt file, exit 1. `store get` frames the
//! compressed streams the store was handed — it re-packs only a block
//! whose record is on another method than the put file packed it with —
//! and checks the result against the put file's length. `trace inspect --dedup` keys blocks
//! exactly as the store does — [`codec::digest128`] over the raw
//! pre-compression payload — so its unique-block accounting predicts
//! store dedup byte-for-byte.

use codec::Json;
use dejavu::{
    encode_trace, ingest_bytes, passthrough_run, record_replay_forensic, record_run, replay_run,
    run_metrics_json, BlockFile, ExecSpec, SymmetryConfig, Trace, TraceFormat,
    DEFAULT_BLOCK_BUDGET,
};
use dejavu_repro::corpus;
use std::cell::Cell;
use std::process::ExitCode;
use workloads::Workload;

/// Why a subcommand failed. The 0/1/2 exit contract is this type: a
/// subcommand can only fail by returning one of these, and the one
/// conversion below is the only place an exit code is chosen.
enum CliError {
    /// Malformed command line; `main` prints the usage summary. Exit 1.
    Usage,
    /// I/O failure, corrupt input, or a refused request. Exit 1.
    Input(String),
    /// Replay divergence, policy violation, or neutrality violation.
    /// Exit 2.
    Diverged(String),
}

impl From<CliError> for ExitCode {
    fn from(e: CliError) -> ExitCode {
        ExitCode::from(match e {
            CliError::Usage | CliError::Input(_) => 1,
            CliError::Diverged(_) => 2,
        })
    }
}

impl From<dejavu::TraceError> for CliError {
    fn from(e: dejavu::TraceError) -> Self {
        CliError::Input(e.to_string())
    }
}

impl From<fleet::WireError> for CliError {
    fn from(e: fleet::WireError) -> Self {
        CliError::Input(format!("fleet rpc: {e}"))
    }
}

impl From<store::StoreError> for CliError {
    fn from(e: store::StoreError) -> Self {
        // A fingerprint conflict is the divergence class, like `replay`.
        match e.code() {
            2 => CliError::Diverged(format!("store: {e}")),
            _ => CliError::Input(format!("store: {e}")),
        }
    }
}

/// The corpus functions report directory-level problems as plain text.
impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::Input(e)
    }
}

type Cmd = Result<(), CliError>;

/// The arguments after the subcommand name. A subcommand first takes
/// the flags it uses, then reads what is left by position; whatever lies
/// past the last position it read was not taken, and [`Args::all_taken`]
/// refuses it.
struct Args {
    args: Vec<String>,
    /// One past the highest position read so far.
    read: Cell<usize>,
}

impl Args {
    /// Remove a boolean flag; true if it was present.
    fn flag(&mut self, flag: &str) -> bool {
        let at = self.args.iter().position(|a| a == flag);
        at.map(|i| self.args.remove(i)).is_some()
    }

    /// Remove `<opt> <value>`, returning the value.
    fn value(&mut self, opt: &str) -> Result<Option<String>, CliError> {
        let Some(i) = self.args.iter().position(|a| a == opt) else {
            return Ok(None);
        };
        if i + 1 >= self.args.len() {
            return Err(CliError::Input(format!("{opt} requires a value argument")));
        }
        let value = self.args.remove(i + 1);
        self.args.remove(i);
        Ok(Some(value))
    }

    /// Remove `<opt> <integer>`, or return `default`.
    fn number<T: std::str::FromStr>(&mut self, opt: &str, default: T) -> Result<T, CliError> {
        match self.value(opt)? {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| CliError::Input(format!("{opt} requires an integer, got \"{s}\""))),
        }
    }

    /// [`Args::number`] for counts that must be at least 1.
    fn positive(&mut self, opt: &str, default: usize) -> Result<usize, CliError> {
        match self.number(opt, default)? {
            0 => Err(CliError::Input(format!(
                "{opt} requires a positive integer"
            ))),
            n => Ok(n),
        }
    }

    /// Positional argument `i`; a usage error when absent.
    fn pos(&self, i: usize) -> Result<&str, CliError> {
        self.read.set(self.read.get().max(i + 1));
        self.args.get(i).map(String::as_str).ok_or(CliError::Usage)
    }

    /// Every positional from `i` on.
    fn rest(&self, i: usize) -> &[String] {
        self.read.set(self.read.get().max(self.args.len()));
        self.args.get(i..).unwrap_or_default()
    }

    /// A usage error if an argument lies past the last position read.
    fn all_taken(&self) -> Cmd {
        match self.args.get(self.read.get()) {
            Some(extra) => {
                eprintln!("unexpected argument \"{extra}\"");
                Err(CliError::Usage)
            }
            None => Ok(()),
        }
    }

    /// Positional `i` as a registry workload.
    fn workload(&self, i: usize) -> Result<Workload, CliError> {
        let name = self.pos(i)?;
        let found = workloads::registry().into_iter().find(|w| w.name == name);
        found.ok_or(CliError::Usage)
    }

    /// Positional `i` as a required integer (a seed, a session id).
    fn int(&self, i: usize) -> Result<u64, CliError> {
        self.pos(i)?.parse().map_err(|_| CliError::Usage)
    }

    /// Positional `i` as an optional seed (default 1).
    fn seed_or_1(&self, i: usize) -> Result<u64, CliError> {
        match self.args.get(i) {
            None => Ok(1),
            Some(_) => self.int(i),
        }
    }
}

/// `--no-quicken` / `--no-mega` as `(quicken, mega)`: the dispatch-tier
/// ablations every run-like subcommand takes. Bit-identical observables,
/// only slower.
fn tiers(args: &mut Args) -> (bool, bool) {
    (!args.flag("--no-quicken"), !args.flag("--no-mega"))
}

/// The spec builder of a run-like subcommand: the platform's one
/// execution environment ([`fleet::spec_for`], shared with the corpus and
/// the fleet) under the tier flags given on the command line.
fn spec_builder(args: &mut Args) -> impl Fn(&Workload, u64) -> ExecSpec {
    let (quicken, mega) = tiers(args);
    move |w, seed| {
        fleet::spec_for(w, seed)
            .with_quicken(quicken)
            .with_mega(mega)
    }
}

fn read(path: &str) -> Result<Vec<u8>, CliError> {
    std::fs::read(path).map_err(|e| CliError::Input(format!("read {path}: {e}")))
}

fn write(path: &str, bytes: impl AsRef<[u8]>) -> Cmd {
    std::fs::write(path, bytes).map_err(|e| CliError::Input(format!("write {path}: {e}")))
}

/// Decode the DJVB bytes read from `path`.
fn decode_trace(path: &str, bytes: Vec<u8>) -> Result<Trace, CliError> {
    match ingest_bytes(bytes) {
        Ok(ingested) => Ok(ingested.trace),
        Err(e) => Err(CliError::Input(format!("{path}: {e}"))),
    }
}

fn load_trace(path: &str) -> Result<Trace, CliError> {
    decode_trace(path, read(path)?)
}

/// Write a JSON document, newline-terminated, to `path`.
fn write_json(path: &str, json: &Json) -> Cmd {
    write(path, format!("{json}\n"))
}

/// Print a document in canonical (sorted-key) form on stdout.
fn print_canonical(mut doc: Json) {
    doc.canonicalize();
    println!("{doc}");
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let cmd: fn(&mut Args) -> Cmd = match argv.next().as_deref() {
        Some("list") => list,
        Some("run") => run,
        Some("record") => record,
        Some("replay") => replay,
        Some("profile") => profile,
        Some("trace") => trace_inspect,
        Some("stats") => stats,
        Some("neutrality") => neutrality,
        Some("checkjson") => checkjson,
        Some("check") => check,
        Some("corpus") => corpus_record,
        Some("dis") => dis,
        Some("store") => store_cmd,
        Some("fleet-serve") => fleet_serve,
        Some("fleet-shutdown") => fleet_shutdown,
        Some("debug") => debug,
        _ => |_| Err(CliError::Usage),
    };
    let mut args = Args {
        args: argv.collect(),
        read: Cell::new(0),
    };
    let Err(e) = cmd(&mut args).and_then(|()| args.all_taken()) else {
        return ExitCode::SUCCESS;
    };
    match &e {
        CliError::Usage => eprintln!(
            "usage: dejavu-cli <list|run|record|replay|profile|trace|stats|neutrality|checkjson|\
             check|corpus|store|dis|fleet-serve|fleet-shutdown|debug> [args...]\n\
             see the module docs for details"
        ),
        CliError::Input(msg) | CliError::Diverged(msg) => eprintln!("{msg}"),
    }
    e.into()
}

fn list(_: &mut Args) -> Cmd {
    for w in workloads::registry() {
        println!("{:22} {}", w.name, w.description);
    }
    Ok(())
}

fn run(args: &mut Args) -> Cmd {
    let spec_of = spec_builder(args);
    let w = args.workload(0)?;
    let r = passthrough_run(&spec_of(&w, args.seed_or_1(1)?), w.natives);
    print!("{}", r.output);
    eprintln!(
        "[{} steps, {} switches, status {:?}]",
        r.counters.steps, r.counters.thread_switches, r.status
    );
    Ok(())
}

fn record(args: &mut Args) -> Cmd {
    let spec_of = spec_builder(args);
    let metrics_out = args.value("--metrics-out")?;
    let (w, seed, path) = (args.workload(0)?, args.int(1)?, args.pos(2)?);
    let mut spec = spec_of(&w, seed);
    if metrics_out.is_some() {
        spec = spec.with_telemetry();
    }
    let (rec, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
    let bytes = encode_trace(&trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET);
    write(path, &bytes)?;
    print!("{}", rec.output);
    let st = trace.stats();
    if let Some(out) = metrics_out {
        write_json(&out, &run_metrics_json(&rec, Some(&st)))?;
    }
    let bst = BlockFile::parse(bytes)?.stats();
    eprintln!(
        "[trace {path}: {} bytes ({} flat), {} blocks, compression {}‰, {} events]",
        bst.file_bytes,
        st.total_bytes,
        bst.blocks,
        bst.compression_permille(),
        bst.events
    );
    Ok(())
}

fn replay(args: &mut Args) -> Cmd {
    let spec_of = spec_builder(args);
    let metrics_out = args.value("--metrics-out")?;
    let (w, seed, path) = (args.workload(0)?, args.int(1)?, args.pos(2)?);
    let trace = load_trace(path)?;
    // Telemetry is always on here: it is proven perturbation-free,
    // and the rings let a divergence be localized to an event.
    let spec = spec_of(&w, seed).with_telemetry();
    let (rep, desyncs) = replay_run(&spec, trace, SymmetryConfig::full());
    print!("{}", rep.output);
    if let Some(out) = metrics_out {
        write_json(&out, &run_metrics_json(&rep, None))?;
    }
    // verify against a fresh record of the same seed
    let (rec, _) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
    let accurate = rec.accurate(&rep, &desyncs);
    for d in &desyncs {
        eprintln!("desync: {}", d.describe());
    }
    let verdict = |word| format!("[replay {word}: {} desyncs]", desyncs.len());
    if !accurate {
        let report = dejavu::DivergenceReport::build(&rec, &rep, desyncs.clone());
        eprintln!("{}", report.describe());
        return Err(CliError::Diverged(verdict("DIVERGED")));
    }
    eprintln!("{}", verdict("ACCURATE"));
    Ok(())
}

/// Replay the trace with the flight recorder armed, emit the
/// Chrome-trace / folded-stacks artifacts, and print the canonical-JSON
/// summary. The profiler is a pure observer, so the profiled replay is
/// also checked for neutrality against an unprofiled replay of the same
/// trace (exit 2 on any fingerprint drift, same class as a divergence).
fn profile(args: &mut Args) -> Cmd {
    let spec_of = spec_builder(args);
    let out_dir = args.value("--out")?;
    let format = args.value("--format")?.unwrap_or_else(|| "both".into());
    let top: usize = args.number("--top", 10)?;
    let (w, seed, path) = (args.workload(0)?, args.int(1)?, args.pos(2)?);
    if !["chrome", "folded", "both"].contains(&format.as_str()) {
        return Err(CliError::Input(format!(
            "--format must be \"chrome\", \"folded\" or \"both\", got \"{format}\""
        )));
    }
    let trace = load_trace(path)?;
    let spec = spec_of(&w, seed);
    let (prof, report, desyncs) =
        dejavu::profile_replay(&spec, trace.clone(), SymmetryConfig::full());
    for d in &desyncs {
        eprintln!("desync: {}", d.describe());
    }
    let (plain, _) = replay_run(&spec, trace, SymmetryConfig::full());
    let neutral =
        report.fingerprint == plain.fingerprint && report.state_digest == plain.state_digest;
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(&dir).map_err(|e| CliError::Input(format!("mkdir {dir}: {e}")))?;
        if format != "folded" {
            let p = format!("{dir}/profile.chrome.json");
            write_json(&p, &prof.chrome_json())?;
            eprintln!("[wrote {p}]");
        }
        if format != "chrome" {
            let p = format!("{dir}/profile.folded");
            write(&p, prof.folded())?;
            eprintln!("[wrote {p}]");
        }
    }
    println!("{}", prof.summary_json(top));
    if let Some(hot) = prof.hottest_method() {
        eprintln!("[hottest method: {hot}]");
    }
    if !neutral {
        return Err(CliError::Diverged(format!(
            "profiler neutrality VIOLATED: profiled fingerprint {:016x} vs unprofiled {:016x}",
            report.fingerprint, plain.fingerprint
        )));
    }
    if !desyncs.is_empty() {
        return Err(CliError::Diverged(format!(
            "[profiled replay DIVERGED: {} desyncs]",
            desyncs.len()
        )));
    }
    Ok(())
}

/// `trace inspect <file>...`: the block index as canonical JSON —
/// diffable, and a deterministic function of the file bytes. Each block
/// carries its content digest (digest128 of the raw pre-compression
/// payload — the store's dedup key, computed over the same bytes), and
/// `--dedup` appends a summary of unique vs total blocks across all the
/// named files: what a `store put` of this set would share.
fn trace_inspect(args: &mut Args) -> Cmd {
    let dedup = args.flag("--dedup");
    if args.pos(0)? != "inspect" {
        return Err(CliError::Usage);
    }
    let paths = args.rest(1);
    if paths.is_empty() {
        return Err(CliError::Usage);
    }
    // digest hex → raw payload length, across all files.
    let mut seen = std::collections::BTreeMap::new();
    let mut total_blocks = 0u64;
    let mut total_raw = 0u64;
    for path in paths {
        let bf =
            BlockFile::parse(read(path)?).map_err(|e| CliError::Input(format!("{path}: {e}")))?;
        let crc_ok = bf.crc_status();
        let blocks = bf
            .index
            .iter()
            .enumerate()
            .zip(&crc_ok)
            .map(|((i, b), &ok)| {
                // Corrupt payloads and method bytes keep the inspection
                // total, like `crc_ok: false` does.
                let digest = match bf.block_raw(i) {
                    Ok(raw) => {
                        let hex = codec::digest128(&raw).hex();
                        if dedup && ok {
                            total_blocks += 1;
                            total_raw += raw.len() as u64;
                            seen.insert(hex.clone(), raw.len() as u64);
                        }
                        hex
                    }
                    Err(_) => "corrupt".into(),
                };
                let permille = match b.raw_len {
                    0 => 1000,
                    raw => b.comp_len as u64 * 1000 / raw as u64,
                };
                let compressor = bf.block_method(i).map_or("corrupt", |m| m.name());
                Json::obj(vec![
                    ("comp_len", Json::UInt(b.comp_len as u64)),
                    ("compression_permille", Json::UInt(permille)),
                    ("compressor", Json::Str(compressor.into())),
                    ("crc_ok", Json::Bool(ok)),
                    ("digest", Json::Str(digest)),
                    ("event_count", Json::UInt(b.event_count as u64)),
                    ("first_logical_time", Json::UInt(b.first_logical_time)),
                    ("first_seq", Json::UInt(b.first_seq)),
                    ("offset", Json::UInt(b.offset)),
                    ("raw_len", Json::UInt(b.raw_len as u64)),
                    ("switch_count", Json::UInt(b.switch_count as u64)),
                ])
            });
        let blocks = Json::Arr(blocks.collect());
        print_canonical(Json::obj(vec![
            ("format", Json::Str("block".into())),
            ("budget", Json::UInt(bf.budget as u64)),
            ("paranoid", Json::Bool(bf.paranoid)),
            ("blocks", blocks),
            ("stats", bf.stats().to_json()),
        ]));
    }
    if dedup {
        let unique_raw: u64 = seen.values().sum();
        let ratio = (total_raw * 1000).checked_div(unique_raw).unwrap_or(0);
        print_canonical(Json::obj(vec![
            ("blocks", Json::UInt(total_blocks)),
            ("dedup_ratio_milli", Json::UInt(ratio)),
            ("files", Json::UInt(paths.len() as u64)),
            ("raw_bytes", Json::UInt(total_raw)),
            ("unique_blocks", Json::UInt(seen.len() as u64)),
            ("unique_raw_bytes", Json::UInt(unique_raw)),
        ]));
    }
    Ok(())
}

fn stats(args: &mut Args) -> Cmd {
    if let Some(addr) = args.value("--fleet")? {
        return fleet_stats(&addr);
    }
    let spec_of = spec_builder(args);
    let w = args.workload(0)?;
    let spec = spec_of(&w, args.seed_or_1(1)?).with_telemetry();
    let out = record_replay_forensic(&spec, w.natives, SymmetryConfig::full());
    // Tier-2 stats are observer-side (excluded from the byte-compared
    // run metrics) but worth surfacing here: tier_ups is deterministic
    // across record/replay, the entry/closed-pass split is not required
    // to be (it depends on each side's quiet-yield horizon).
    let mega = Json::obj(vec![
        ("record", out.record.mega.to_json()),
        ("replay", out.replay.mega.to_json()),
    ]);
    print_canonical(Json::obj(vec![
        ("accurate", Json::Bool(out.accurate)),
        ("mega", mega),
        (
            "record",
            run_metrics_json(&out.record, Some(&out.trace_stats)),
        ),
        ("replay", run_metrics_json(&out.replay, None)),
    ]));
    // Human-readable latency digest of the record-side histograms:
    // the log2-bucket quantile estimates (exact min/max, p50/p95/p99
    // interpolated within a bucket).
    if let Some(t) = &out.record.telemetry {
        for (name, h) in [
            ("alloc_words", &t.histograms.alloc_words),
            ("compile_words", &t.histograms.compile_words),
            ("timer_intervals", &t.histograms.timer_intervals),
        ] {
            if h.count() == 0 {
                continue;
            }
            eprintln!(
                "[{name}: n={} min={} p50={} p95={} p99={} max={}]",
                h.count(),
                h.min().unwrap_or(0),
                h.quantile(500).unwrap_or(0),
                h.quantile(950).unwrap_or(0),
                h.quantile(990).unwrap_or(0),
                h.max().unwrap_or(0),
            );
        }
    }
    match &out.report {
        Some(report) => Err(CliError::Diverged(report.describe())),
        None => Ok(()),
    }
}

/// `stats --fleet <addr>`: live fleet-server metrics. Stdout is the
/// canonical (sorted-key, byte-deterministic) JSON snapshot; the human
/// latency digest goes to stderr like workload stats.
fn fleet_stats(addr: &str) -> Cmd {
    let json = fleet::FleetClient::connect(addr)?.stats()?;
    let doc = Json::parse(&json)
        .map_err(|_| CliError::Input("stats rpc returned unparseable json".into()))?;
    println!("{doc}");
    let num = |obj: &Json, k: &str| obj.get(k).and_then(|v| v.as_u64().ok()).unwrap_or(0);
    if let Some(sessions) = doc.get("sessions") {
        eprintln!(
            "[sessions: active={} peak={} opened={} closed={} evicted={}]",
            num(sessions, "active"),
            num(sessions, "peak"),
            num(sessions, "opened"),
            num(sessions, "closed"),
            num(sessions, "evicted"),
        );
    }
    if let Some(Json::Obj(hists)) = doc.get("rpc").and_then(|r| r.get("histograms")) {
        for (name, h) in hists.iter().filter(|(_, h)| num(h, "count") > 0) {
            eprintln!(
                "[{name}: n={} p50={}ns p95={}ns p99={}ns max={}ns]",
                num(h, "count"),
                num(h, "p50"),
                num(h, "p95"),
                num(h, "p99"),
                num(h, "max"),
            );
        }
    }
    Ok(())
}

/// Prove perturbation-freedom for this workload+seed: the fingerprint,
/// state digest and output of record and replay must be bit-identical
/// with the telemetry sink on vs. off.
fn neutrality(args: &mut Args) -> Cmd {
    let spec_of = spec_builder(args);
    let w = args.workload(0)?;
    let spec_off = spec_of(&w, args.seed_or_1(1)?);
    let spec_on = spec_off.clone().with_telemetry();
    let off = record_replay_forensic(&spec_off, w.natives, SymmetryConfig::full());
    let on = record_replay_forensic(&spec_on, w.natives, SymmetryConfig::full());
    let neutral = off.record.matches(&on.record) && off.replay.matches(&on.replay);
    println!(
        "record fingerprint off={:016x} on={:016x}\n\
         replay fingerprint off={:016x} on={:016x}\n\
         neutrality: {}",
        off.record.fingerprint,
        on.record.fingerprint,
        off.replay.fingerprint,
        on.replay.fingerprint,
        if neutral { "HOLDS" } else { "VIOLATED" }
    );
    if !neutral {
        return Err(CliError::Diverged(
            "telemetry perturbed the execution".into(),
        ));
    }
    Ok(())
}

fn checkjson(args: &mut Args) -> Cmd {
    let path = args.pos(0)?;
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Input(format!("read {path}: {e}")))?;
    let json = Json::parse(text.trim())
        .map_err(|e| CliError::Input(format!("{path}: invalid JSON: {e}")))?;
    if json.to_canonical_string() != text.trim() {
        return Err(CliError::Input(format!(
            "{path}: valid JSON but not in canonical (sorted-key) form"
        )));
    }
    println!("{path}: canonical JSON OK");
    Ok(())
}

fn check(args: &mut Args) -> Cmd {
    let (quicken, mega) = tiers(args);
    let dir = args.pos(0)?;
    let report = corpus::check_corpus(std::path::Path::new(dir), quicken, mega)
        .map_err(|e| format!("check {dir}: {e}"))?;
    for c in &report.checks {
        let verdict = if let Some(msg) = &c.corrupt {
            format!("CORRUPT  {msg}")
        } else if !c.violations.is_empty() {
            format!("VIOLATED {}", c.violations.join("; "))
        } else {
            format!(
                "ok       {} events, {} bytes{}, {} ms",
                c.events,
                c.bytes,
                c.seek_events
                    .map(|e| format!(", seek {e} ev"))
                    .unwrap_or_default(),
                c.check_ms
            )
        };
        println!("{:28} {verdict}", c.name);
        for w in &c.warnings {
            println!("{:28}   lenient: {w}", "");
        }
    }
    // Divergences get the full treatment: minimize the failing
    // workload spec and print a replayable repro blob.
    for c in report.checks.iter().filter(|c| c.diverged) {
        let policy = std::fs::read_to_string(format!("{dir}/{}.policy.json", c.name))
            .map_err(|e| e.to_string())
            .and_then(|text| corpus::Policy::parse(&text));
        let Ok(policy) = policy else {
            continue;
        };
        let start = corpus::ReproSpec {
            workload: policy.workload,
            seed: policy.seed,
            timer_base: 211,
            timer_jitter: 60,
            clock_noise: 3,
        };
        match corpus::shrink_divergence(&start, SymmetryConfig::full()) {
            Some(repro) => eprintln!("repro[{}]: {}", c.name, repro.to_blob()),
            None => eprintln!(
                "repro[{}]: divergence did not reproduce from a fresh record \
                 (trace/policy drift, not a platform bug)",
                c.name
            ),
        }
    }
    let summary = format!(
        "[corpus {dir}: {}/{} passed]",
        report.passed(),
        report.checks.len()
    );
    match report.exit_class() {
        0 => {
            println!("{summary}");
            Ok(())
        }
        1 => Err(CliError::Input(summary)),
        _ => Err(CliError::Diverged(summary)),
    }
}

fn corpus_record(args: &mut Args) -> Cmd {
    let ("record", dir) = (args.pos(0)?, args.pos(1)?) else {
        return Err(CliError::Usage);
    };
    let stems = corpus::record_corpus(std::path::Path::new(dir))
        .map_err(|e| format!("corpus record {dir}: {e}"))?;
    for s in &stems {
        println!("recorded {dir}/{s}.djvb");
    }
    eprintln!("[corpus {dir}: {} traces recorded]", stems.len());
    Ok(())
}

fn dis(args: &mut Args) -> Cmd {
    use djvm::dis;
    let (quick, mega) = (args.flag("--quick"), args.flag("--mega"));
    let p = (args.workload(0)?.build)();
    let text = match args.pos(1) {
        Ok(mname) => {
            let m = p
                .method_id_by_name(mname)
                .ok_or_else(|| CliError::Input(format!("no method {mname}")))?;
            match (mega, quick) {
                (true, _) => dis::disassemble_mega(&p, m),
                (_, true) => dis::disassemble_quickened(&p, m),
                _ => dis::disassemble(&p, m),
            }
        }
        Err(_) if mega => dis::disassemble_mega_all(&p),
        Err(_) if quick => dis::disassemble_quickened_all(&p),
        Err(_) => dis::disassemble_all(&p),
    };
    println!("{text}");
    Ok(())
}

/// Content-addressed trace store (crates/store).
fn store_cmd(args: &mut Args) -> Cmd {
    let spec_of = spec_builder(args);
    let no_verify = args.flag("--no-verify");
    let policy = args.value("--policy")?.unwrap_or_default();
    let (op, dir) = (args.pos(0)?, args.pos(1)?);
    let st = store::Store::open(std::path::Path::new(dir))?;
    match op {
        "put" => {
            let (w, seed, path) = (args.workload(2)?, args.int(3)?, args.pos(4)?);
            let bytes = read(path)?;
            // Verified by default: the fingerprint cataloged with a
            // run is one an actual replay produced, cross-checked
            // against a fresh record — never taken on faith.
            let mut fingerprint = 0u64;
            if !no_verify {
                let trace = decode_trace(path, bytes.clone())?;
                let spec = spec_of(&w, seed);
                let (rep, desyncs) = replay_run(&spec, trace, SymmetryConfig::full());
                let (rec, _) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
                if !rec.accurate(&rep, &desyncs) {
                    return Err(CliError::Diverged(format!(
                        "store put: {path} does not replay accurately as {}/{seed} \
                         ({} desyncs) — refusing to catalog a verified fingerprint",
                        w.name,
                        desyncs.len()
                    )));
                }
                fingerprint = rep.fingerprint;
            }
            let out = st.put_bytes(w.name, seed, &bytes, fingerprint, &policy)?;
            print_canonical(out.to_json());
            eprintln!(
                "[store put {}: {} blocks ({} new), {}]",
                out.entry,
                out.blocks_total,
                out.blocks_new,
                if no_verify { "unverified" } else { "verified" }
            );
        }
        "get" => {
            let (id, out) = (args.pos(2)?, args.pos(3)?);
            let bytes = st.get_bytes(id)?;
            write(out, &bytes)?;
            eprintln!("[store get {id}: {} bytes]", bytes.len());
        }
        "ls" => {
            for e in st.entries()? {
                print_canonical(Json::obj(vec![
                    ("blocks", Json::UInt(e.blocks.len() as u64)),
                    ("file_bytes", Json::UInt(e.file_bytes)),
                    ("fingerprint", Json::UInt(e.fingerprint)),
                    ("id", Json::Str(e.identity())),
                    ("puts", Json::UInt(e.puts)),
                    ("seed", Json::UInt(e.seed)),
                    ("workload", Json::Str(e.workload)),
                ]));
            }
        }
        "gc" => print_canonical(st.gc()?.to_json()),
        "compact" => print_canonical(st.compact(0)?.to_json()),
        "stats" => print_canonical(st.disk_stats()?),
        _ => return Err(CliError::Usage),
    }
    Ok(())
}

fn fleet_serve(args: &mut Args) -> Cmd {
    let workers = args.positive("--workers", 8)?;
    let shutdown_token = args
        .value("--fleet-token")?
        .unwrap_or_else(|| "dejavu".into());
    let port_file = args.value("--port-file")?;
    let store_root = args.value("--store")?.map(std::path::PathBuf::from);
    let port: u16 = args.pos(0)?.parse().map_err(|_| CliError::Usage)?;
    args.all_taken()?; // the server runs until shutdown: refuse a stray argument first
    let config = fleet::FleetConfig {
        workers,
        shutdown_token,
        store_root,
    };
    let server = fleet::FleetServer::start(&format!("127.0.0.1:{port}"), config)
        .map_err(|e| CliError::Input(format!("bind port {port}: {e}")))?;
    let addr = server.addr();
    // `--port-file` lets scripts bind port 0 and learn the pick.
    if let Some(path) = port_file {
        write(&path, format!("{}\n", addr.port()))?;
    }
    eprintln!("fleet server listening on {addr} ({workers} workers, framed RPC)");
    server.join(); // returns when a Shutdown RPC is accepted
    eprintln!("fleet server: clean shutdown");
    Ok(())
}

fn fleet_shutdown(args: &mut Args) -> Cmd {
    let (addr, token) = (args.pos(0)?, args.pos(1)?);
    if !fleet::FleetClient::connect(addr)?.shutdown(token)? {
        return Err(CliError::Input(format!(
            "fleet server at {addr}: shutdown denied (bad ctrl token)"
        )));
    }
    eprintln!("fleet server at {addr}: shutting down");
    Ok(())
}

/// The debugger front end of a running `fleet-serve`. `open` hosts a
/// session and records the workload server-side, printing the session id;
/// every other call parses one `debugger::protocol` command from its JSON
/// spelling (a malformed one is exit 1), runs it against a session and
/// prints the response as one JSON line (a debugger-level `error`
/// response is exit 1).
fn debug(args: &mut Args) -> Cmd {
    let mut client = fleet::FleetClient::connect(args.pos(0)?)?;
    if args.pos(1)? == "open" {
        let (workload, seed) = (args.pos(2)?, args.int(3)?);
        let session = client.open(workload, seed)?;
        match client.call(&fleet::Request::Record { session })? {
            fleet::Response::Recorded { .. } => println!("{session}"),
            other => return Err(CliError::Input(format!("record: {other:?}"))),
        }
        return Ok(());
    }
    use fleet::{ParseJson, PrintJson};
    let cmd = debugger::Command::from_json_str(args.pos(2)?)
        .map_err(|e| CliError::Input(format!("bad debug command: {e}")))?;
    let resp = client.debug(args.int(1)?, &cmd)?;
    println!("{}", resp.to_json_string());
    match resp {
        debugger::Response::Error { message } => Err(CliError::Input(message)),
        _ => Ok(()),
    }
}
