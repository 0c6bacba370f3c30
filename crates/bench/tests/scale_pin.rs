//! The committed BENCH_scale.json pins its 1k row: `bench_scale --check`
//! re-routes that point and compares the hop and ETX forest digests, so a
//! change to routing structure fails under `cargo test`, not only under
//! `scripts/verify.sh`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn committed() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_scale.json")
}

fn check(artifact: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_scale"))
        .arg("--check")
        .arg(artifact)
        .output()
        .expect("bench_scale starts")
}

#[test]
fn the_committed_1k_forest_digest_reproduces() {
    let out = check(&committed());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("pin nodes=1000 forest_digest 0x"),
        "{stdout}"
    );
    assert!(
        stdout.contains("pin nodes=1000 etx_forest_digest 0x"),
        "{stdout}"
    );
}

#[test]
fn a_flipped_1k_forest_digest_fails_the_check() {
    let text = std::fs::read_to_string(committed()).expect("committed artifact");
    let row = text.find("\"nodes\": 1000,").expect("a 1k row");
    let key = "\"forest_digest\": \"0x";
    let digit = row + text[row..].find(key).expect("the row's digest") + key.len();
    let flipped = if text.as_bytes()[digit] == b'0' {
        "1"
    } else {
        "0"
    };
    let mut edited = text.clone();
    edited.replace_range(digit..=digit, flipped);

    let path =
        std::env::temp_dir().join(format!("BENCH_scale_flipped_{}.json", std::process::id()));
    std::fs::write(&path, edited).expect("write the edited copy");
    let out = check(&path);
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a flipped digest passed the check");
    assert!(
        stderr.contains("nodes=1000 re-ran to another forest_digest"),
        "{stderr}"
    );
}
