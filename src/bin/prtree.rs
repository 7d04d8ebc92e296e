//! `prtree` — command-line face of the persistent PR-tree.
//!
//! ```text
//! prtree build --out index.prt --data tiger-east --n 100000 --loader PR
//! prtree query index.prt --window 0.2,0.2,0.4,0.4
//! prtree knn   index.prt --point 0.5,0.5 --k 10
//! prtree stats index.prt
//!
//! prtree ingest  live-dir --data uniform --n 100000       # durable writes
//! prtree delete  live-dir --window 0.2,0.2,0.4,0.4
//! prtree compact live-dir
//! prtree query   live-dir --window 0,0,1,1                # works on both
//! ```
//!
//! `build` bulk-loads one of the paper's dataset families in memory and
//! commits it to a store file; `query`/`knn` reopen the index (checksum-
//! verified reads) and report results plus exact I/O statistics; `stats`
//! dumps the superblock and scrubs every page. A **directory** argument
//! is treated as a `pr-live` index (WAL + memtable + components):
//! `ingest` appends durably (every batch fsynced before it is
//! acknowledged — kill the process anywhere and re-run `query`),
//! `delete` removes by window, `compact` merges everything into one
//! component and rewrites the store file. `events` and `slow` dump the
//! lifecycle event ring and the slow-op flight recorder after an open;
//! `torture` runs the fault-injection sweep. Everything is 2-D, the
//! paper's experimental setting.
//!
//! Each command is one row of `COMMANDS`: its name, its handler and
//! every flag it accepts. A flag a command does not list is an
//! `unknown option` error, so every flag a command takes changes what it
//! does. Handlers write their report to the locked stdout and return
//! `Result`; `main` prints `error: …` and exits 1 (2 for an unknown
//! command). A reader that closes the pipe early (`| head`) ends the
//! command quietly with exit 0. `query` and `knn` open a store file and a
//! live directory through one `Reader`, so each reports, checks
//! `--expect` and arms `--explain` once for both kinds.

#![forbid(unsafe_code)]

#[path = "prtree/build.rs"]
mod build;
#[path = "prtree/compact.rs"]
mod compact;
#[path = "prtree/delete.rs"]
mod delete;
#[path = "prtree/events.rs"]
mod events;
#[path = "prtree/ingest.rs"]
mod ingest;
#[path = "prtree/knn.rs"]
mod knn;
#[path = "prtree/obs.rs"]
mod obs;
#[path = "prtree/opts.rs"]
mod opts;
#[path = "prtree/query.rs"]
mod query;
#[path = "prtree/reader.rs"]
mod reader;
#[path = "prtree/slow.rs"]
mod slow;
#[path = "prtree/stats.rs"]
mod stats;
#[path = "prtree/torture.rs"]
mod torture;

use build::cmd_build;
use compact::cmd_compact;
use delete::cmd_delete;
use events::cmd_events;
use ingest::cmd_ingest;
use knn::cmd_knn;
use obs::init_obs;
#[cfg(test)]
use opts::parse_coords;
use opts::{Command, Flag, Opts};
use query::cmd_query;
use slow::cmd_slow;
use stats::cmd_stats;
use std::error::Error;
use std::io::{self, Write};
use torture::cmd_torture;
use Flag::{Bool, Value};

/// A command's outcome: `main` prints the error and exits 1.
type CmdResult<T = ()> = Result<T, Box<dyn Error>>;

/// What the span tracer samples and which traces the flight recorder
/// keeps: flags of the commands that print traces.
const TRACE_FLAGS: &[Flag] = &[Value("trace-sample")];
/// The memtable seal threshold and where merges run: flags of the
/// commands whose writes can trigger a merge.
const MERGE_FLAGS: &[Flag] = &[Value("buffer-cap"), Bool("inline-merge")];
/// Re-hash every store page on every read: flags of the commands that
/// read pages.
const PARANOID: &[Flag] = &[Bool("paranoid")];

const COMMANDS: &[Command] = &[
    Command {
        name: "build",
        run: cmd_build,
        flags: &[&[
            Value("out"),
            Value("data"),
            Value("n"),
            Value("seed"),
            Value("loader"),
            Value("cap"),
        ]],
    },
    Command {
        name: "ingest",
        run: cmd_ingest,
        flags: &[
            &[
                Value("data"),
                Value("n"),
                Value("seed"),
                Value("id-base"),
                Value("batch"),
                Value("writers"),
                Value("durability"),
                Value("cap"),
                Value("metrics-file"),
                Value("trace-file"),
                Value("trace-sample"),
                Bool("flush"),
            ],
            MERGE_FLAGS,
        ],
    },
    Command {
        name: "delete",
        run: cmd_delete,
        flags: &[&[Value("window"), Value("limit")], MERGE_FLAGS],
    },
    Command {
        name: "compact",
        run: cmd_compact,
        // The compaction runs on the caller's thread whatever
        // --inline-merge says; --buffer-cap picks the slot it lands in.
        flags: &[&[Value("max-garbage-pct"), Value("buffer-cap")]],
    },
    Command {
        name: "query",
        run: cmd_query,
        flags: &[
            &[
                Value("window"),
                Value("expect"),
                Value("repeat"),
                Bool("verbose"),
                Bool("explain"),
            ],
            PARANOID,
        ],
    },
    Command {
        name: "knn",
        run: cmd_knn,
        flags: &[&[Value("point"), Value("k"), Bool("explain")], PARANOID],
    },
    Command {
        name: "stats",
        run: cmd_stats,
        flags: &[&[Bool("no-verify"), Bool("json")], PARANOID, TRACE_FLAGS],
    },
    Command {
        name: "events",
        run: cmd_events,
        flags: &[&[Value("limit"), Bool("json")]],
    },
    Command {
        name: "slow",
        run: cmd_slow,
        flags: &[&[Value("limit"), Bool("json")], TRACE_FLAGS],
    },
    Command {
        name: "torture",
        run: cmd_torture,
        flags: &[&[
            Value("seed"),
            Value("batches"),
            Value("batch"),
            Value("writers"),
            Value("durability"),
            Value("stride"),
        ]],
    },
];

const USAGE: &str = "usage: prtree <command> [options]\n\
\n\
commands:\n\
\x20 build --out FILE [--data KIND] [--n N] [--seed S] [--loader L] [--cap C]\n\
\x20       build a synthetic index and commit it to FILE\n\
\x20       KIND: uniform | size | tiger-east | tiger-west   (default uniform)\n\
\x20       L:    PR | H | H4 | TGS | STR                    (default PR)\n\
\x20       C:    entries per node (default: the paper's 113 / 4KB pages)\n\
\x20 ingest DIR [--data KIND] [--n N] [--seed S] [--id-base B] [--batch SIZE]\n\
\x20        [--writers W] [--durability fsync|async|async:BYTES] [--cap C]\n\
\x20        [--buffer-cap C] [--inline-merge] [--flush]\n\
\x20        [--metrics-file FILE] [--trace-file FILE] [--trace-sample N]\n\
\x20       durably insert N synthetic items into the live index at DIR\n\
\x20       (created on first use). --writers W shards the stream over W\n\
\x20       threads whose batches coalesce into shared group-commit\n\
\x20       fsyncs; --durability picks the ack point: fsync (default —\n\
\x20       acked writes are on disk) or async[:BYTES] (ack after the\n\
\x20       buffered append; a syncer thread fsyncs behind a window of\n\
\x20       at most BYTES unsynced WAL bytes, default 8 MiB);\n\
\x20       --id-base offsets ids so successive ingests\n\
\x20       stay unique; --flush forces a merge commit before exiting;\n\
\x20       --metrics-file FILE periodically flushes the metrics registry\n\
\x20       to FILE as JSON (atomic rename; final flush on exit);\n\
\x20       --trace-file FILE traces every operation (1 in N with\n\
\x20       --trace-sample N) and writes the run's span traces to FILE as\n\
\x20       Chrome trace-event JSON on exit (open in about://tracing or\n\
\x20       Perfetto; --n 0 --flush captures just open + replay + flush).\n\
\x20       --buffer-cap C seals the memtable at C items (default 1024);\n\
\x20       --inline-merge runs merges on the writer instead of the\n\
\x20       background thread (both also apply to delete)\n\
\x20 delete DIR --window X1,Y1,X2,Y2 [--limit N] [--buffer-cap C] [--inline-merge]\n\
\x20       durably delete (up to N) live items intersecting the window\n\
\x20 compact DIR [--max-garbage-pct P] [--buffer-cap C]\n\
\x20       merge memtable + all components into one tree, drop all\n\
\x20       tombstones, and rewrite the store file (reclaims the garbage\n\
\x20       incremental merge commits leave behind). --max-garbage-pct P\n\
\x20       makes it conditional: rewrite only when garbage exceeds P%\n\
\x20       of the file, otherwise keep the incremental layout (exit 0,\n\
\x20       \"skipped\")\n\
\x20 query FILE|DIR --window X1,Y1,X2,Y2 [--expect N] [--verbose] [--repeat R]\n\
\x20       [--paranoid] [--explain]\n\
\x20       reopen the index and run one window query (--expect N: exit 1\n\
\x20       unless exactly N results — used by CI roundtrips; --repeat R:\n\
\x20       rerun the query R times through one reused scratch and report\n\
\x20       warm-cache throughput of the decode-free engine;\n\
\x20       --explain: trace the traversal and print a per-level profile\n\
\x20       of nodes/leaves/internal/device-reads plus phase timings,\n\
\x20       cross-checked exactly against the query's own statistics —\n\
\x20       exit 1 on any mismatch)\n\
\x20 knn FILE|DIR --point X,Y [--k K] [--paranoid] [--explain]\n\
\x20       reopen the index and report the K nearest rectangles (default K=5).\n\
\x20       query/knn/stats accept --paranoid: re-hash every store page on\n\
\x20       every read (CRC rechecked each touch) instead of verify-once\n\
\x20 stats FILE|DIR [--no-verify] [--paranoid] [--json]\n\
\x20       [--trace-sample N]\n\
\x20       store file: dump the superblock, eagerly scrub every page CRC\n\
\x20       through the verify-once bitmap (reporting verified/total), report\n\
\x20       tree shape (--no-verify stops after the superblock dump).\n\
\x20       Live dir: WAL/memtable/component/tombstone/degraded-mode state,\n\
\x20       plus a full store scrub (nonzero exit on any corrupt page;\n\
\x20       --no-verify skips it). Both paths end with the process-wide\n\
\x20       metrics registry (one formatter). --json emits the registry\n\
\x20       snapshot + lifecycle events + the slow-op flight recorder as\n\
\x20       one JSON document; live dirs add an \"index\" summary (write\n\
\x20       amp, garbage, \"components\": [{slot, items}])\n\
\x20       and the per-run \"store_runs\"\n\
\x20       layout (stable id + byte offset + pages — unchanged pairs\n\
\x20       across commits prove in-place page reuse)\n\
\x20 events DIR [--limit N] [--json]\n\
\x20       replay the lifecycle event ring after opening the live index\n\
\x20       (open + WAL replay) — WAL rotations, group flushes, seals,\n\
\x20       merges, compactions, scrubs. Store files have no event\n\
\x20       history: a file path is an error\n\
\x20 slow DIR|FILE [--limit N] [--json] [--trace-sample N]\n\
\x20       trace every operation of the open (live dir: WAL replay;\n\
\x20       store file: open + scrub) and dump the slow-op flight\n\
\x20       recorder: the N slowest traces per op-kind, slowest first.\n\
\x20       stats/slow accept --trace-sample N (span-trace 1 op in N; 0 =\n\
\x20       off, the default for stats)\n\
\x20 torture [DIR] [--seed S] [--batches B] [--batch SIZE] [--writers W]\n\
\x20        [--durability fsync|async|async:BYTES] [--stride K]\n\
\x20       fault-injection torture sweep: run a scripted ingest trace once\n\
\x20       to count its I/O ops and fault-mark hits, then re-run it once per\n\
\x20       op with exactly that op failing (EIO / ENOSPC / torn write /\n\
\x20       EINTR, cycling) and once per mark hit with a power cut there,\n\
\x20       reopening after each run and verifying the acked-prefix\n\
\x20       invariant. --stride K sweeps every Kth op; --writers W > 1\n\
\x20       switches to the concurrent insert-only trace. Exits 0 only\n\
\x20       if every run recovers exactly the acknowledged operations";

fn main() {
    init_obs();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map_or("--help", String::as_str);
    if name == "--help" || name == "-h" {
        eprintln!("{USAGE}");
        return;
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("error: unknown command '{name}'");
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    match run(cmd, &args[1..]) {
        Err(e) if is_broken_pipe(e.as_ref()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        Ok(()) => {}
    }
}

/// Parses the arguments and runs the command with stdout locked.
fn run(cmd: &Command, args: &[String]) -> CmdResult {
    let opts = Opts::parse(cmd, args)?;
    let mut out = io::stdout().lock();
    (cmd.run)(&opts, &mut out)?;
    Ok(out.flush()?)
}

/// Whether a command failed only because its reader went away: stdout
/// was a pipe whose other end closed (`prtree stats DIR | head -1`).
/// The reader chose to stop reading, so that is not an error.
fn is_broken_pipe(e: &(dyn Error + 'static)) -> bool {
    e.downcast_ref::<io::Error>()
        .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn parse_coords_takes_signed_zero_exponents_and_inf_but_not_nan() {
        assert_eq!(
            parse_coords::<4>("-0, 1e-3,inf,-inf", "--window"),
            Ok([-0.0, 1e-3, f64::INFINITY, f64::NEG_INFINITY])
        );
        for bad in ["nan,0", "0,NaN", "0,-nan", "0,x", "0,"] {
            let err = parse_coords::<2>(bad, "--point").unwrap_err();
            assert!(err.ends_with("is not a number"), "{bad}: {err}");
        }
        assert!(parse_coords::<2>("0,0,0", "--point").is_err());
    }

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).unwrap()
    }

    fn parse(cmd: &str, args: &[&str]) -> Result<Opts, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Opts::parse(command(cmd), &args)
    }

    /// Every `--flag` token of `USAGE`.
    fn usage_flags() -> BTreeSet<&'static str> {
        USAGE
            .match_indices("--")
            .map(|(at, _)| {
                let rest = &USAGE[at + 2..];
                let end = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .unwrap_or(rest.len());
                &rest[..end]
            })
            .collect()
    }

    #[test]
    fn usage_names_every_flag_and_only_flags_some_command_takes() {
        let documented = usage_flags();
        let mut accepted = BTreeSet::new();
        for cmd in COMMANDS {
            assert!(USAGE.contains(&format!("  {} ", cmd.name)), "{}", cmd.name);
            for flag in cmd.flags.iter().flat_map(|set| set.iter()) {
                assert!(
                    documented.contains(flag.name()),
                    "{} --{} is missing from USAGE",
                    cmd.name,
                    flag.name()
                );
                accepted.insert(flag.name());
            }
        }
        let stray: Vec<_> = documented.difference(&accepted).collect();
        assert!(
            stray.is_empty(),
            "USAGE documents flags no command takes: {stray:?}"
        );
    }

    #[test]
    fn only_a_closed_stdout_is_a_quiet_exit() {
        let pipe: Box<dyn Error> = io::Error::from(io::ErrorKind::BrokenPipe).into();
        assert!(is_broken_pipe(pipe.as_ref()));
        let full: Box<dyn Error> = io::Error::from(io::ErrorKind::StorageFull).into();
        assert!(!is_broken_pipe(full.as_ref()));
        let text: Box<dyn Error> = "Broken pipe".into();
        assert!(!is_broken_pipe(text.as_ref()));
    }

    /// A stdout whose reader has gone: every write fails.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::ErrorKind::BrokenPipe.into())
        }
    }

    #[test]
    fn expect_outranks_a_pipe_closed_during_the_explain_profile() {
        let path = std::env::temp_dir().join(format!("prtree-cli-{}.prt", std::process::id()));
        let file = path.to_str().unwrap();
        let build = parse("build", &["--out", file, "--n", "200", "--seed", "7"]).unwrap();
        (command("build").run)(&build, &mut Vec::new()).unwrap();
        let args = [file, "--window", "0,0,1,1", "--explain", "--expect", "4"];
        let query = parse("query", &args).unwrap();
        let err = (command("query").run)(&query, &mut ClosedPipe).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(!is_broken_pipe(err.as_ref()), "{err}");
        assert_eq!(err.to_string(), "expected 4 results, got 200");
    }

    #[test]
    fn flags_parse_against_the_command_row() {
        let err = |cmd: &str, args: &[&str]| parse(cmd, args).err().unwrap();
        assert_eq!(err("query", &["idx", "--x"]), "unknown option --x");
        // Flags a command does not act on are refused, not ignored.
        assert_eq!(
            err("query", &["idx", "--buffer-cap", "8"]),
            "unknown option --buffer-cap"
        );
        assert_eq!(
            err("events", &["dir", "--paranoid"]),
            "unknown option --paranoid"
        );
        assert_eq!(
            err("query", &["idx", "--window"]),
            "--window expects a value"
        );

        let opts = parse("ingest", &["dir", "--n", "1", "--flush", "--n", "2"]).unwrap();
        assert_eq!(opts.positional, ["dir"]);
        assert_eq!(opts.num::<u32>("n", 7), Ok(2), "the last value wins");
        assert!(opts.has("flush") && !opts.has("inline-merge"));
        assert_eq!(opts.num::<u64>("seed", 42), Ok(42));
        assert_eq!(opts.path("DIR"), Ok("dir"));
    }

    #[test]
    fn typed_getters_name_the_flag_and_its_bound() {
        let opts = parse("ingest", &["--batch", "0", "--n", "x", "--writers", "3"]).unwrap();
        assert_eq!(
            opts.num_min::<usize>("batch", 1024, 1),
            Err("--batch expects an integer >= 1".into())
        );
        assert_eq!(
            opts.num::<u32>("n", 5),
            Err("--n expects an integer".into())
        );
        assert_eq!(opts.num_min::<usize>("writers", 1, 1), Ok(3));
        assert_eq!(opts.opt_num::<u32>("id-base"), Ok(None));
        assert_eq!(
            opts.path("DIR"),
            Err("ingest expects exactly one DIR argument".into())
        );
        assert_eq!(
            opts.require("trace-file", "FILE"),
            Err("ingest requires --trace-file FILE".into())
        );
    }
}
