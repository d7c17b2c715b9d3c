//! The `campaign` binary's command-line contract, driven through the built
//! executable: which option belongs to which subcommand, that the removed
//! flag spellings are gone, that the three execution routes (fabric,
//! offline shard + merge, in-process) write the same bytes, and that an
//! unbuildable or unfinishable campaign fails fast instead of stalling.
//! The `figures` binary's (much smaller) contract and the pinned text of
//! its campaign-rendered figures are the last two tests.

use hpcc_core::{timing, BackendSpec, Campaign};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

const QUEUEING_SMOKE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../manifests/queueing_smoke.json"
);

fn run(exe: &str, args: &[&str]) -> Output {
    let out = Command::new(exe).args(args).output();
    out.unwrap_or_else(|e| panic!("cannot run {exe}: {e}"))
}

fn campaign(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_campaign"), args)
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaign-cli-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("cannot create scratch dir");
    dir
}

#[test]
fn every_option_is_accepted_exactly_where_documented() {
    // Each option with a well-formed value (the switch has none).
    let options: [(&str, &[&str]); 11] = [
        ("--manifest", &["/nonexistent/m.json"]),
        ("--report", &["/nonexistent/r.json"]),
        ("--verify-serial", &[]),
        ("--tolerance", &["0.5"]),
        ("--expect", &["1"]),
        ("--spawn-workers", &["1"]),
        ("--chaos-kill-at", &["0.5"]),
        ("--checkpoint", &["/nonexistent/c.jsonl"]),
        ("--name", &["w"]),
        ("--lease-timeout-ms", &["100"]),
        ("--heartbeat-ms", &["100"]),
    ];
    // Each subcommand with a base invocation that gets past argument
    // parsing and then ends at once (unreadable manifest, refused
    // connection, or a manifest printed), and the options it documents.
    let missing = ["--manifest", "/nonexistent/m.json"];
    let subcommands: [(&[&str], &[&str], &[&str]); 7] = [
        (
            &["run"],
            &missing,
            &["--manifest", "--report", "--verify-serial"],
        ),
        (
            &["serve", "127.0.0.1:0", "--spawn-workers", "1"],
            &missing,
            &[
                "--manifest",
                "--report",
                "--verify-serial",
                "--spawn-workers",
                "--chaos-kill-at",
                "--checkpoint",
                "--lease-timeout-ms",
                "--heartbeat-ms",
            ],
        ),
        (&["join", "127.0.0.1:1"], &[], &["--name", "--heartbeat-ms"]),
        (&["shard", "0/2"], &missing, &["--manifest"]),
        (
            &["merge", "/nonexistent/a.jsonl"],
            &[],
            &["--manifest", "--expect", "--report"],
        ),
        (
            &["validate"],
            &missing,
            &["--manifest", "--tolerance", "--report"],
        ),
        (&["dump", "fabric"], &[], &[]),
    ];
    for (base, tail, accepted) in subcommands {
        for (option, value) in options {
            let mut args = base.to_vec();
            args.push(option);
            args.extend(value);
            args.extend(tail);
            let out = campaign(&args);
            let err = stderr(&out);
            if accepted.contains(&option) {
                assert!(!err.contains("usage:"), "{args:?} must parse: {err}");
            } else {
                assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
                assert!(
                    err.contains("is not an option of this command") && err.contains("usage:"),
                    "{args:?}: {err}"
                );
            }
        }
    }
}

#[test]
fn dump_reproduces_the_committed_preset_manifests() {
    // `manifests/{fluid,fabric}_smoke.json` say "regenerate with `campaign
    // dump`"; the encoder must still write exactly those bytes.
    // (`fault_smoke.json` is held to its preset in `crates/core/tests/faults.rs`.)
    for (preset, committed) in [
        ("fluid", include_str!("../../../manifests/fluid_smoke.json")),
        (
            "fabric",
            include_str!("../../../manifests/fabric_smoke.json"),
        ),
    ] {
        let out = campaign(&["dump", preset]);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        assert_eq!(String::from_utf8_lossy(&out.stdout), committed, "{preset}");
    }
}

#[test]
fn removed_spellings_and_malformed_arguments_exit_2() {
    let removed = [
        "--shards",
        "--worker-shard",
        "--merge",
        "--serve",
        "--join",
        "--cross-validate",
        "--dump-manifest",
        "--dump-fluid-manifest",
        "--dump-fabric-manifest",
        "--hang-after",
        "--quit-after",
    ];
    for spelling in removed {
        // Neither a mode of its own any more, nor an option of a subcommand.
        for args in [vec![spelling, "2"], vec!["run", spelling, "2"]] {
            let out = campaign(&args);
            let err = stderr(&out);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
            assert!(err.contains("usage:"), "{args:?}: {err}");
        }
    }
    // No subcommand, a typo in a positional, a value out of range, a stray
    // positional, a missing operand: all exit 2, none runs a default.
    let malformed: [&[&str]; 7] = [
        &[],
        &["5", "0.3"],
        &["run", "5x", "0.3"],
        &["validate", "--tolerance", "-1"],
        &["join", "127.0.0.1:1", "extra"],
        &["serve", "--spawn-workers", "2"],
        &["serve", "127.0.0.1:0", "--chaos-kill-at", "0.5"],
    ];
    for args in malformed {
        let out = campaign(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
    }
    assert!(stderr(&campaign(&["run", "5x", "0.3"])).contains("\"5x\""));
}

#[test]
fn fabric_offline_and_in_process_routes_write_identical_reports() {
    let dir = scratch("routes");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let ok = |args: &[&str]| {
        let out = campaign(args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        out
    };
    ok(&[
        "serve",
        "127.0.0.1:0",
        "--spawn-workers",
        "2",
        "--manifest",
        QUEUEING_SMOKE,
        "--report",
        &path("a.json"),
    ]);
    let mut shard_files = Vec::new();
    for shard in ["0/2", "1/2"] {
        let out = ok(&["shard", shard, "--manifest", QUEUEING_SMOKE]);
        let file = path(&format!("shard-{}.jsonl", &shard[..1]));
        std::fs::write(&file, out.stdout).unwrap();
        shard_files.push(file);
    }
    ok(&[
        "merge",
        &shard_files[0],
        &shard_files[1],
        "--manifest",
        QUEUEING_SMOKE,
        "--report",
        &path("b.json"),
    ]);
    ok(&[
        "run",
        "--manifest",
        QUEUEING_SMOKE,
        "--report",
        &path("c.json"),
    ]);

    let manifest = std::fs::read_to_string(QUEUEING_SMOKE).unwrap();
    let serial = Campaign::from_json_str(&manifest).unwrap().run_serial();
    let expected = serial.to_json_string() + "\n";
    for report in ["a.json", "b.json", "c.json"] {
        let written = std::fs::read_to_string(path(report)).unwrap();
        assert!(written == expected, "{report} differs from run_serial()");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unbuildable_scenario_fails_fast_naming_its_index() {
    let dir = scratch("unbuildable");
    let manifest = std::fs::read_to_string(QUEUEING_SMOKE).unwrap();
    let mut specs = Campaign::from_json_str(&manifest)
        .unwrap()
        .scenarios()
        .to_vec();
    // Decodes, but cannot be built: scenario 1 is PIAS-2 and the fluid
    // model has a single data class.
    specs[1] = specs[1].clone().with_backend(BackendSpec::Fluid);
    let bad = dir.join("bad.json");
    std::fs::write(&bad, Campaign::from_scenarios(specs).to_json_string()).unwrap();
    let bad = bad.to_str().unwrap();

    let routes: [&[&str]; 3] = [
        &["run"],
        &["serve", "127.0.0.1:0", "--spawn-workers", "2"],
        &["shard", "0/2"],
    ];
    for route in routes {
        let mut args = route.to_vec();
        args.extend(["--manifest", bad]);
        let started = timing::now();
        let out = campaign(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(started.elapsed() < Duration::from_secs(5), "{args:?} slow");
        assert!(
            err.contains("scenario 1 (") && err.contains("fluid backend does not support"),
            "{args:?}: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `cc.label` is an open string on the wire: a label outside the six schemes
/// decodes, and used to panic (exit 101, a backtrace) when the scenario was
/// built. It is an ordinary unbuildable scenario.
#[test]
fn an_unknown_scheme_label_exits_2_naming_the_scenario() {
    let dir = scratch("unknown-label");
    let manifest = std::fs::read_to_string(QUEUEING_SMOKE).unwrap();
    let bad = dir.join("bad.json");
    std::fs::write(
        &bad,
        manifest.replacen("\"label\":\"HPCC\"", "\"label\":\"HPCCX\"", 1),
    )
    .unwrap();
    let out = campaign(&["run", "--manifest", bad.to_str().unwrap()]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains("scenario 0 (") && err.contains("cc.label: unknown scheme \"HPCCX\""),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Once every spawned worker is dead and the campaign is incomplete,
/// `serve` gives up after one lease timeout (exit 4, statuses printed)
/// rather than the two-minute stall timeout.
#[test]
fn serve_gives_up_one_lease_timeout_after_its_workers_die() {
    use std::io::{BufRead, BufReader};
    // A built-in campaign long enough (6 × 300 ms of simulated Clos traffic)
    // that no scenario finishes before the workers are killed.
    let mut serve = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["serve", "127.0.0.1:0", "--spawn-workers", "2"])
        .args(["--lease-timeout-ms", "300", "300", "0.5"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cannot run the campaign binary");
    let mut lines = BufReader::new(serve.stderr.take().unwrap()).lines();
    for _ in 0..2 {
        let line = lines.next().expect("two spawn lines").unwrap();
        let pid = line
            .split("(pid ")
            .nth(1)
            .and_then(|rest| rest.strip_suffix(')'))
            .unwrap_or_else(|| panic!("no worker pid in {line:?}"));
        assert!(Command::new("kill")
            .args(["-9", pid])
            .status()
            .unwrap()
            .success());
    }
    let killed = timing::now();
    let rest: Vec<String> = lines.map(Result::unwrap).collect();
    let status = serve.wait().unwrap();
    assert_eq!(status.code(), Some(4), "{rest:?}");
    assert!(killed.elapsed() < Duration::from_secs(10), "{rest:?}");
    assert!(
        rest.iter()
            .any(|l| l.contains("stalled") && l.contains("SIGKILL")),
        "{rest:?}"
    );
}

fn figures(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_figures"), args)
}

#[test]
fn figures_runs_the_named_runner_and_rejects_anything_else() {
    for args in [&["fig06", "1"][..], &["tab_int_overhead"]] {
        let out = figures(args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        assert!(!out.stdout.is_empty(), "{args:?} printed nothing");
    }
    // An unknown name, a malformed or stray positional, an option: exit 2
    // with the generated usage, nothing on stdout.
    let rejected: [&[&str]; 6] = [
        &[],
        &["nope"],
        &["fig06", "x"],
        &["fig06", "1", "2"],
        &["all", "1"],
        &["fig06", "--report", "r.json"],
    ];
    for args in rejected {
        let out = figures(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains("usage:") && err.contains("figures fig11"),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// The text of the figures, pinned at small scale in `tests/fixtures/`:
/// the campaigns whose tables come from per-scenario summaries (Figures 2,
/// 3, 10, 11 and 12) and the runners that read per-port and per-flow series
/// from `SimOutput` (Figures 1, 6, 9, 13 and 14). However they execute
/// their scenarios, they print these bytes. Only Figure 11's header line
/// varies between runs (it reports the thread count and the wall time), so
/// it is masked.
#[test]
fn figures_print_their_recorded_text() {
    let mask = |text: &str| -> String {
        text.lines()
            .map(|l| {
                if l.contains(" scenarios on ") && l.contains(" threads in ") {
                    "<campaign header>\n".to_string()
                } else {
                    format!("{l}\n")
                }
            })
            .collect()
    };
    let golden: [(&[&str], &str); 10] = [
        (&["fig01"], include_str!("fixtures/fig01.txt")),
        (
            &["fig02", "2", "0.3"],
            include_str!("fixtures/fig02_2_0.3.txt"),
        ),
        (&["fig03", "2"], include_str!("fixtures/fig03_2.txt")),
        (&["fig06", "1"], include_str!("fixtures/fig06_1.txt")),
        (&["fig09", "1"], include_str!("fixtures/fig09_1.txt")),
        (&["fig10", "2"], include_str!("fixtures/fig10_2.txt")),
        (
            &["fig11", "2", "0.3", "1", "0"],
            include_str!("fixtures/fig11_2_0.3_1_0.txt"),
        ),
        (
            &["fig12", "2", "0.3"],
            include_str!("fixtures/fig12_2_0.3.txt"),
        ),
        (&["fig13", "1"], include_str!("fixtures/fig13_1.txt")),
        (&["fig14", "1"], include_str!("fixtures/fig14_1.txt")),
    ];
    for (args, expected) in golden {
        let out = figures(args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        let printed = String::from_utf8(out.stdout).expect("figure text is UTF-8");
        assert_eq!(mask(&printed), mask(expected), "{args:?}");
    }
}
