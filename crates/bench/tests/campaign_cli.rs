//! The `hpcc` binary's command-line contract, driven through the built
//! executable: which option belongs to which subcommand, that the removed
//! spellings and commands are gone, that the three execution routes (fabric,
//! offline shard + merge, in-process) write the same bytes, that rows of
//! another manifest are refused, that an unbuildable or unfinishable
//! campaign fails fast instead of stalling, what the `trace` and `topo`
//! subcommands write, and the pinned text of the figures.

use hpcc_core::{timing, BackendSpec, Campaign};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

const QUEUEING_SMOKE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../manifests/queueing_smoke.json"
);
const FABRIC_SMOKE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../manifests/fabric_smoke.json"
);

const HPCC: &str = env!("CARGO_BIN_EXE_hpcc");

fn hpcc(args: &[&str]) -> Output {
    let out = Command::new(HPCC).args(args).output();
    out.unwrap_or_else(|e| panic!("cannot run {HPCC}: {e}"))
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
    // Each option with a well-formed value.
    let options: [(&str, &str); 8] = [
        ("--manifest", "/nonexistent/m.json"),
        ("--report", "/nonexistent/r.json"),
        ("--spawn-workers", "1"),
        ("--checkpoint", "/nonexistent/c.jsonl"),
        ("--name", "w"),
        ("--lease-timeout-ms", "1000"),
        ("--index", "1"),
        ("--out", "/nonexistent/o"),
    ];
    // Each subcommand with a base invocation that gets past argument
    // parsing and then ends at once (unreadable manifest or file, refused
    // connection, or a manifest printed), and the options it documents.
    let missing = ["--manifest", "/nonexistent/m.json"];
    let subcommands: [(&[&str], &[&str], &[&str]); 12] = [
        (&["run"], &missing, &["--manifest", "--report"]),
        (
            &["serve", "127.0.0.1:0", "--spawn-workers", "1"],
            &missing,
            &[
                "--manifest",
                "--report",
                "--spawn-workers",
                "--checkpoint",
                "--lease-timeout-ms",
            ],
        ),
        (&["join", "127.0.0.1:1"], &[], &["--name"]),
        (&["shard", "0/2"], &missing, &["--manifest"]),
        (
            &["merge", "/nonexistent/a.jsonl"],
            &missing,
            &["--manifest", "--report"],
        ),
        (&["dump", "fig11"], &[], &[]),
        (&["figures", "tab_int_overhead"], &[], &[]),
        (
            &["trace", "export"],
            &missing,
            &["--manifest", "--index", "--out"],
        ),
        (&["trace", "freeze"], &missing, &["--manifest", "--out"]),
        (&["trace", "info", "/nonexistent/t.csv"], &[], &[]),
        (&["topo", "info", "/nonexistent/t.edges"], &[], &[]),
        (&["topo", "convert", "/nonexistent/t.edges"], &[], &[]),
    ];
    for (base, tail, accepted) in subcommands {
        for (option, value) in options {
            let mut args = base.to_vec();
            args.extend([option, value]);
            args.extend(tail);
            let out = hpcc(&args);
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

/// `topo convert` writes the canonical edge list, which converts to itself
/// (the committed corpus files carry comments, so they are not canonical
/// text themselves), and `topo info` lists every link of the file.
#[test]
fn topo_convert_is_a_fixed_point_and_info_lists_every_link() {
    let dir = scratch("topo");
    for name in ["abilene", "dragonfly_9", "jellyfish_12", "rocketfuel_pop"] {
        let committed = format!("{}/../../corpus/{name}.edges", env!("CARGO_MANIFEST_DIR"));
        let canonical = dir.join(format!("{name}.edges"));
        let canonical = canonical.to_str().unwrap();
        let out = hpcc(&["topo", "convert", &committed, canonical]);
        assert!(out.status.success(), "{name}: {}", stderr(&out));
        let again = hpcc(&["topo", "convert", canonical]);
        assert!(again.status.success(), "{name}: {}", stderr(&again));
        assert_eq!(again.stdout, std::fs::read(canonical).unwrap(), "{name}");

        let text = std::fs::read_to_string(&committed).unwrap();
        let links = text.lines().filter(|l| l.starts_with("link ")).count();
        let info = hpcc(&["topo", "info", &committed]);
        assert!(info.status.success(), "{name}: {}", stderr(&info));
        let printed = String::from_utf8_lossy(&info.stdout);
        let rows = printed.lines().filter(|l| l.starts_with("  link ")).count();
        assert!(
            printed.contains(&format!("\n  links   {links}\n")),
            "{printed}"
        );
        assert_eq!(rows, links, "{printed}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Write the corpus file `text` and a one-scenario manifest on it to `dir`,
/// and check that `topo info`, `topo convert`, `run` and `shard` each exit
/// 2 with `wanted` on stderr, and that nothing panics.
fn corpus_is_refused(dir: &std::path::Path, name: &str, text: &str, wanted: &str) {
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let edges = path(name);
    std::fs::write(&edges, text).unwrap();
    let manifest = path(&format!("{name}.json"));
    std::fs::write(
        &manifest,
        format!(
            r#"[{{"name":"{name}","topology":{{"kind":"Corpus","path":{edges:?},"host_bw_bps":25000000000}},"cc":{{"kind":"Label","label":"HPCC"}},"workloads":[{{"kind":"Poisson","cdf":"FB_Hadoop","load":0.3,"first_flow_id":0}}],"duration_ps":100000000,"seed":1,"flow_control":"PFC","trace":{{"queue_sample_interval_ps":5000000}}}}]"#
        ),
    )
    .unwrap();
    for args in [
        &["topo", "info", &edges][..],
        &["topo", "convert", &edges],
        &["run", "--manifest", &manifest],
        &["shard", "0/1", "--manifest", &manifest],
    ] {
        let out = hpcc(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(wanted), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

/// A corpus host with two links or none is refused where the file is read,
/// naming the host and its `node` line.
#[test]
fn a_corpus_host_without_exactly_one_link_exits_2() {
    let dir = scratch("host-links");
    corpus_is_refused(
        &dir,
        "two.edges",
        "node h0 host\nnode h1 host\nnode s0 switch\nnode s1 switch\n\
         link h0 s0 25Gbps 1us\nlink h0 s1 25Gbps 1us\n\
         link h1 s0 25Gbps 1us\nlink s0 s1 25Gbps 1us\n",
        r#"line 1: host "h0" has 2 links"#,
    );
    corpus_is_refused(
        &dir,
        "none.edges",
        "node h0 host\nnode h1 host\nnode h2 host\nnode s0 switch\n\
         link h0 s0 25Gbps 1us\nlink h1 s0 25Gbps 1us\n",
        r#"line 3: host "h2" has 0 links"#,
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A bandwidth or delay past a `u64` of base units, or a delay whose round
/// trip does not fit one, is refused at its link's line: neither saturated
/// nor wrapped into a base RTT.
#[test]
fn a_corpus_quantity_out_of_range_exits_2() {
    let dir = scratch("quantities");
    let nodes = "node h0 host\nnode h1 host\nnode s0 switch\nnode s1 switch\n\
                 link h0 s0 25Gbps 1us\nlink h1 s1 25Gbps 1us\n";
    for (name, link, wanted) in [
        (
            "bandwidth.edges",
            "link s0 s1 99999999999999999999999Gbps 1us\n",
            r#"line 7: quantity "99999999999999999999999Gbps""#,
        ),
        (
            "delay.edges",
            "link s0 s1 25Gbps 10000000s\n",
            r#"line 7: quantity "10000000s""#,
        ),
    ] {
        corpus_is_refused(&dir, name, &format!("{nodes}{link}"), wanted);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `trace export` writes one CSV line per flow of the scenario, to `--out`
/// or stdout; `trace info` counts them back; and `trace freeze` writes a
/// manifest that runs to the report of the one it froze, byte for byte.
#[test]
fn trace_export_info_and_freeze_agree_with_the_manifest() {
    let dir = scratch("trace");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let manifest = std::fs::read_to_string(FABRIC_SMOKE).unwrap();
    let campaign = Campaign::from_json_str(&manifest).unwrap();
    let flows = campaign.scenarios()[0].try_build().unwrap().flows().len();
    let export = ["trace", "export", "--manifest", FABRIC_SMOKE];
    let to_stdout = hpcc(&export);
    assert!(to_stdout.status.success(), "{}", stderr(&to_stdout));
    let file = path("flows.csv");
    let to_file = hpcc(&[&export[..], &["--out", &file]].concat());
    assert!(to_file.status.success(), "{}", stderr(&to_file));
    assert_eq!(to_stdout.stdout, std::fs::read(&file).unwrap());
    let info = hpcc(&["trace", "info", &file]);
    let printed = String::from_utf8_lossy(&info.stdout);
    assert!(
        printed.contains(&format!(": {flows} records, ")),
        "{printed}"
    );

    let frozen = path("frozen.json");
    let out = hpcc(&[
        "trace",
        "freeze",
        "--manifest",
        QUEUEING_SMOKE,
        "--out",
        &frozen,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_ne!(
        std::fs::read(&frozen).unwrap(),
        std::fs::read(QUEUEING_SMOKE).unwrap()
    );
    let report = |manifest: &str| {
        let report = path("report.json");
        let out = hpcc(&["run", "--manifest", manifest, "--report", &report]);
        assert!(out.status.success(), "{manifest}: {}", stderr(&out));
        std::fs::read(&report).unwrap()
    };
    assert!(
        report(&frozen) == report(QUEUEING_SMOKE),
        "the reports differ"
    );
    std::fs::remove_dir_all(&dir).ok();
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
        "--chaos-kill-at",
        "--heartbeat-ms",
    ];
    // Neither a mode of its own any more, nor an option of a subcommand.
    let mut rejected: Vec<Vec<&str>> = Vec::new();
    for spelling in removed {
        rejected.push(vec![spelling, "2"]);
        rejected.push(vec!["run", spelling, "2"]);
    }
    // No subcommand, a removed one or an old program's name, a typo in a
    // positional, a stray positional, a missing operand or option, a
    // removed fabric option, a lease timeout that healthy workers' 200 ms
    // heartbeats cannot meet, a campaign named by anything but a manifest,
    // the serial check and the expected count that left the binary: none
    // runs a default.
    let malformed: [&[&str]; 28] = [
        &[],
        &["5", "0.3"],
        &["campaign", "run"],
        &["validate"],
        &["validate", "--tolerance", "0.5"],
        &["dump", "fluid"],
        &["trace", "roundtrip", "--manifest", QUEUEING_SMOKE],
        &["trace", "export", "--manifest", FABRIC_SMOKE, "--jsonl"],
        &["trace"],
        &["trace", "export"],
        &["trace", "info"],
        &["trace", "info", "a.csv", "b.csv"],
        &["topo", "info"],
        &["topo", "convert", "a.edges", "b.edges", "c.edges"],
        &["join", "127.0.0.1:1", "extra"],
        &["serve", "--spawn-workers", "2"],
        &["serve", "127.0.0.1:0", "--chaos-kill-at", "0.5"],
        &["join", "127.0.0.1:1", "--heartbeat-ms", "100"],
        &[
            "serve",
            "127.0.0.1:0",
            "--spawn-workers",
            "2",
            "--lease-timeout-ms",
            "100",
        ],
        &["serve", "127.0.0.1:0", "--lease-timeout-ms", "200"],
        &["run"],
        &["run", "5", "0.3"],
        &["run", "--verify-serial", "--manifest", QUEUEING_SMOKE],
        &["serve", "127.0.0.1:0", "3", "0.3"],
        &["shard", "0/2", "5", "0.3"],
        &["merge", "a.jsonl"],
        &[
            "merge",
            "a.jsonl",
            "--manifest",
            QUEUEING_SMOKE,
            "--expect",
            "1",
        ],
        &["dump", "fabric"],
    ];
    rejected.extend(malformed.map(<[&str]>::to_vec));
    // Each exits 2 with the one usage text (figure names included) and
    // prints nothing on stdout.
    for args in rejected {
        let out = hpcc(&args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains("usage:") && err.contains("\n      fig11 "),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    let err = stderr(&hpcc(&[
        "serve",
        "127.0.0.1:0",
        "--lease-timeout-ms",
        "200",
    ]));
    assert!(err.contains("heartbeat"), "{err}");
    // A malformed value exits 2 naming it.
    let out = hpcc(&["dump", "fig11", "5x", "0.3"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("\"5x\"") && out.stdout.is_empty(), "{err}");
}

#[test]
fn fabric_offline_and_in_process_routes_write_identical_reports() {
    let dir = scratch("routes");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let ok = |args: &[&str]| {
        let out = hpcc(args);
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

/// `run` simulates on one thread per core, never more threads than
/// scenarios: a large manifest is not simulated all at once.
#[test]
fn run_uses_one_thread_per_core_capped_at_the_scenario_count() {
    let out = hpcc(&["run", "--manifest", QUEUEING_SMOKE]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // "campaign: <n> scenarios (<cores> available cores)"
    let counts: Vec<usize> = stdout
        .lines()
        .next()
        .unwrap_or_default()
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|w| w.parse().ok())
        .collect();
    let [n, cores] = counts[..] else {
        panic!("no scenario and core count in {stdout}");
    };
    let threads = n.min(cores);
    assert!(
        stdout.contains(&format!(" scenarios on {threads} thread(s) in ")),
        "{stdout}"
    );
}

/// `dump fig11` builds every scenario before it prints, as `run` does, so
/// it never writes a manifest that every runner would refuse.
#[test]
fn dump_fig11_refuses_what_run_would_refuse() {
    let out = hpcc(&["dump", "fig11", "1", "-1"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains("scenario 0 (") && err.contains("load -1"),
        "{err}"
    );
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
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
        let out = hpcc(&args);
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
    let out = hpcc(&["run", "--manifest", bad.to_str().unwrap()]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains("scenario 0 (") && err.contains("cc.label: unknown scheme \"HPCCX\""),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The pid a `serve` spawn line ("… spawned worker w0 (pid 123)") names.
fn spawned_pid(line: &str) -> &str {
    line.split("(pid ")
        .nth(1)
        .and_then(|rest| rest.strip_suffix(')'))
        .unwrap_or_else(|| panic!("no worker pid in {line:?}"))
}

/// SIGKILL the worker whose `serve` spawn line is next on `lines`.
fn kill_next_spawned(lines: &mut impl Iterator<Item = std::io::Result<String>>) {
    let line = lines.next().expect("a spawn line").unwrap();
    assert!(Command::new("kill")
        .args(["-9", spawned_pid(&line)])
        .status()
        .unwrap()
        .success());
}

/// A spawned worker killed mid-campaign costs nothing but time: the other
/// one finishes, the report still equals `run_serial()`'s, and the death is
/// reported as tolerated.
#[test]
fn serve_rides_out_a_killed_worker() {
    use std::io::{BufRead, BufReader};
    let dir = scratch("killed-worker");
    let report = dir.join("r.json");
    let mut serve = Command::new(HPCC)
        .args(["serve", "127.0.0.1:0", "--spawn-workers", "2"])
        .args(["--manifest", FABRIC_SMOKE, "--report"])
        .arg(&report)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cannot run hpcc");
    let mut lines = BufReader::new(serve.stderr.take().unwrap()).lines();
    kill_next_spawned(&mut lines);
    let rest: Vec<String> = lines.map(Result::unwrap).collect();
    let out = serve.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{rest:?}");
    assert!(
        rest.iter()
            .any(|l| l.contains("worker 0 exited with") && l.ends_with("(tolerated)")),
        "{rest:?}"
    );
    let manifest = std::fs::read_to_string(FABRIC_SMOKE).unwrap();
    let serial = Campaign::from_json_str(&manifest).unwrap().run_serial();
    let written = std::fs::read_to_string(&report).expect("--report was not written");
    assert!(
        written == serial.to_json_string() + "\n",
        "the report differs from run_serial()"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Once every spawned worker is dead and the campaign is incomplete, no
/// worker is alive: the coordinator abandons the campaign one lease timeout
/// later, and `serve` exits 4 with the workers' statuses printed.
#[test]
fn serve_gives_up_one_lease_timeout_after_its_workers_die() {
    use std::io::{BufRead, BufReader};
    // The built-in campaign, long enough (6 × 300 ms of simulated Clos
    // traffic) that no scenario finishes before the workers are killed.
    let dir = scratch("workers-die");
    let manifest = dir.join("fig11.json");
    let dump = hpcc(&["dump", "fig11", "300", "0.5"]);
    assert!(dump.status.success(), "{}", stderr(&dump));
    std::fs::write(&manifest, dump.stdout).unwrap();
    let mut serve = Command::new(HPCC)
        .args(["serve", "127.0.0.1:0", "--spawn-workers", "2"])
        .args(["--lease-timeout-ms", "300", "--manifest"])
        .arg(&manifest)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cannot run hpcc");
    let mut lines = BufReader::new(serve.stderr.take().unwrap()).lines();
    kill_next_spawned(&mut lines);
    kill_next_spawned(&mut lines);
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
    std::fs::remove_dir_all(&dir).ok();
}

/// With no worker at all, `serve` gives up one lease timeout after it
/// starts (exit 4), naming how many results it had.
#[test]
fn serve_with_no_worker_gives_up_after_one_lease_timeout() {
    let mut serve = Command::new(HPCC)
        .args(["serve", "127.0.0.1:0", "--lease-timeout-ms", "300"])
        .args(["--manifest", FABRIC_SMOKE])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cannot run hpcc");
    let started = timing::now();
    let status = loop {
        if let Some(status) = serve.try_wait().unwrap() {
            break status;
        }
        if started.elapsed() > Duration::from_secs(10) {
            serve.kill().unwrap();
            serve.wait().unwrap();
            panic!("serve still running after 10 s with no worker");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let err = stderr(&serve.wait_with_output().unwrap());
    assert_eq!(status.code(), Some(4), "{err}");
    assert!(err.contains("stalled at 0/12"), "{err}");
}

/// Rows written for one manifest are refused against another whose
/// scenario at some index has a different name — by `merge --manifest` and
/// by a `serve` replaying them as its checkpoint (exit 2 both; the spawned
/// worker does not outlive `serve`). Against a longer manifest, `merge`
/// names the first foreign row rather than counting the rows missing.
#[test]
fn rows_of_another_manifest_are_refused() {
    let dir = scratch("foreign");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let out = hpcc(&["shard", "0/1", "--manifest", QUEUEING_SMOKE]);
    assert!(out.status.success(), "{}", stderr(&out));
    std::fs::write(path("rows.jsonl"), out.stdout).unwrap();
    let text = std::fs::read_to_string(QUEUEING_SMOKE).unwrap();
    let mut specs = Campaign::from_json_str(&text).unwrap().scenarios().to_vec();
    let name = std::mem::replace(&mut specs[3].name, "renamed".to_string());
    let other = Campaign::from_scenarios(specs).to_json_string();
    std::fs::write(path("other.json"), other).unwrap();
    let merged = hpcc(&[
        "merge",
        &path("rows.jsonl"),
        "--manifest",
        &path("other.json"),
    ]);
    let served = hpcc(&[
        "serve",
        "127.0.0.1:0",
        "--spawn-workers",
        "1",
        "--checkpoint",
        &path("rows.jsonl"),
        "--manifest",
        &path("other.json"),
    ]);
    for out in [&merged, &served] {
        let err = stderr(out);
        assert_eq!(out.status.code(), Some(2), "{err}");
        let named = format!("row 3 is {name:?}");
        assert!(err.contains(&named) && err.contains("\"renamed\""), "{err}");
    }
    let longer = hpcc(&["merge", &path("rows.jsonl"), "--manifest", FABRIC_SMOKE]);
    let err = stderr(&longer);
    assert_eq!(longer.status.code(), Some(2), "{err}");
    assert!(err.contains("result row 0 is "), "{err}");
    let err = stderr(&served);
    let spawned = err.lines().find(|l| l.contains("spawned worker"));
    let pid = spawned_pid(spawned.unwrap_or_else(|| panic!("no spawn line in {err}")));
    let alive = Command::new("kill")
        .args(["-0", pid])
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(!alive.success(), "worker {pid} outlived serve");
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that stops reading (`hpcc merge … | head -2`) ends the
/// printing, not the command: no panic, and `--report` is still written.
#[test]
fn a_closed_stdout_ends_the_printing_not_the_command() {
    use std::io::Write;
    let dir = scratch("closed-stdout");
    let shard = hpcc(&["shard", "0/1", "--manifest", QUEUEING_SMOKE]);
    assert!(shard.status.success(), "{}", stderr(&shard));
    let report = dir.join("r.json");
    // The merge reads its shard from stdin, so it can print nothing before
    // the read end of its stdout is gone.
    let mut merge = Command::new(HPCC)
        .args([
            "merge",
            "/dev/stdin",
            "--manifest",
            QUEUEING_SMOKE,
            "--report",
        ])
        .arg(&report)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cannot run hpcc");
    drop(merge.stdout.take());
    let mut stdin = merge.stdin.take().unwrap();
    stdin.write_all(&shard.stdout).unwrap();
    drop(stdin);
    let out = merge.wait_with_output().unwrap();
    let err = stderr(&out);
    assert_ne!(out.status.code(), Some(101), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let manifest = std::fs::read_to_string(QUEUEING_SMOKE).unwrap();
    let serial = Campaign::from_json_str(&manifest).unwrap().run_serial();
    let written = std::fs::read_to_string(&report).expect("--report was not written");
    assert!(written == serial.to_json_string() + "\n", "{written}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn figures_runs_the_named_runner_and_rejects_anything_else() {
    for args in [
        &["figures", "fig06", "1"][..],
        &["figures", "tab_int_overhead"],
    ] {
        let out = hpcc(args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        assert!(!out.stdout.is_empty(), "{args:?} printed nothing");
    }
    // An unknown name, a malformed or stray positional, an option: exit 2
    // with the generated usage, nothing on stdout.
    let rejected: [&[&str]; 6] = [
        &["figures"],
        &["figures", "nope"],
        &["figures", "fig06", "x"],
        &["figures", "fig06", "1", "2"],
        &["figures", "all", "1"],
        &["figures", "fig06", "--report", "r.json"],
    ];
    for args in rejected {
        let out = hpcc(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains("usage:") && err.contains("\n      fig11 "),
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
        let out = hpcc(&[&["figures"], args].concat());
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        let printed = String::from_utf8(out.stdout).expect("figure text is UTF-8");
        assert_eq!(mask(&printed), mask(expected), "{args:?}");
    }
    let out = hpcc(&["figures", "tab_int_overhead"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("INT header overhead"));
}
