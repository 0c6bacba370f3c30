//! The `scenario` bin on loaded scenarios whose plan moves no message:
//! it reports the lifetime as unbounded and exits cleanly, where the
//! lifetime projection used to abort after the header.

use std::process::Command;

/// Two nodes out of radio range: routing plans nothing for the pair.
const OUT_OF_RANGE: &str = "\
# m2m v1
deployment 100 100 10
node 0 0 0
node 1 90 90
function 0 min
source 0 1 1.0
";

/// A destination whose only source is itself.
const SELF_ONLY: &str = "\
# m2m v1
deployment 100 100 10
node 0 0 0
node 1 5 5
function 0 min
source 0 0 1.0
";

#[test]
fn plans_that_move_no_message_report_an_unbounded_lifetime() {
    for (name, text) in [("out_of_range", OUT_OF_RANGE), ("self_only", SELF_ONLY)] {
        let path = std::env::temp_dir().join(format!(
            "m2m_scenario_load_{}_{name}.txt",
            std::process::id()
        ));
        std::fs::write(&path, text).expect("write the scenario file");
        let out = Command::new(env!("CARGO_BIN_EXE_scenario"))
            .arg("--load")
            .arg(&path)
            .output()
            .expect("run the scenario bin");
        std::fs::remove_file(&path).ok();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{name}: exit {:?}\n{stdout}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("unbounded"), "{name}:\n{stdout}");
    }
}
