//! End-to-end test of `apollo serve`: replay a JSONL trace through the
//! real binary and answer queries from stdin.

use std::io::Write;
use std::process::{Command, Stdio};

const TRACE: &str = r#"{"id":1,"user":"sally","time":10,"text":"breaking explosion near bridge a1 #x"}
{"id":2,"user":"bob","time":11,"text":"breaking explosion near bridge a1 #x"}
{"id":3,"user":"john","time":12,"text":"breaking explosion near bridge a1 #x","retweet_of":1}
{"id":4,"user":"mia","time":13,"text":"crowd gathers at stadium a2 #x"}
{"id":5,"user":"sally","time":14,"text":"crowd gathers at stadium a2 #x"}
"#;

/// Runs `apollo serve` over `TRACE` with `args` appended, feeding
/// `queries` on stdin: `(exited successfully, stdout, stderr)`.
fn serve(tag: &str, args: &[&str], queries: &[u8]) -> (bool, String, String) {
    let dir = std::env::temp_dir().join(format!("apollo-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.jsonl");
    std::fs::write(&trace, TRACE).expect("write trace");

    let mut child = Command::new(env!("CARGO_BIN_EXE_apollo"))
        .args(["serve", "--input", trace.to_str().unwrap()])
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn apollo serve");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(queries)
        .expect("write queries");
    let out = child.wait_with_output().expect("apollo serve exits");
    std::fs::remove_dir_all(&dir).ok();
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

#[test]
fn apollo_serve_replays_and_answers_stdin_queries() {
    let (ok, stdout, stderr) = serve(
        "e2e",
        &["--batches", "3", "--threads", "1"],
        b"stats\nposterior 0\ntop-sources 3\nbound\nbound 0\nnope\nquit\n",
    );
    assert!(ok, "stdout:\n{stdout}\nstderr:\n{stderr}");

    // Startup banner reports the replay (5 claims over 2 clusters).
    assert!(
        stderr.contains("4 sources, 2 assertion clusters, 5 claims replayed in 3 batches"),
        "stderr:\n{stderr}"
    );
    // One answer line (or block) per query, in order.
    assert!(stdout.contains("claims=5 requests="), "stdout:\n{stdout}");
    assert!(stdout.contains("posterior 0 = "), "stdout:\n{stdout}");
    assert!(stdout.contains("top 3 of 4 sources:"), "stdout:\n{stdout}");
    assert!(stdout.contains("precision="), "stdout:\n{stdout}");
    assert!(
        stdout.contains("bound over 2 assertions: error=0."),
        "stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("bound over 1 assertions: error=0."),
        "stdout:\n{stdout}"
    );
    assert!(
        stdout.contains("error: unknown command `nope`"),
        "stdout:\n{stdout}"
    );
    // Graceful shutdown reports final service stats.
    assert!(stderr.contains("shutdown:"), "stderr:\n{stderr}");
}

#[test]
fn apollo_serve_banner_counts_shards_in_the_right_number() {
    for (shards, backend) in [("1", "(1 shard)"), ("2", "(2 shards)")] {
        let (ok, stdout, stderr) = serve(
            &format!("shards-{shards}"),
            &["--batches", "3", "--shards", shards],
            b"quit\n",
        );
        assert!(ok, "stdout:\n{stdout}\nstderr:\n{stderr}");
        assert!(
            stderr.contains(&format!("replayed in 3 batches {backend}")),
            "stderr:\n{stderr}"
        );
    }
}

#[test]
fn apollo_serve_requires_an_input() {
    let out = Command::new(env!("CARGO_BIN_EXE_apollo"))
        .args(["serve"])
        .output()
        .expect("run apollo serve");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(stderr.contains("--input"), "stderr:\n{stderr}");
}
