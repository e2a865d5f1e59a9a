//! Bad input never panics: it prints a message and exits with status 2
//! before any simulation runs.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_input_exits_2_with_a_message() {
    let cases: [(&[&str], &str); 9] = [
        (&["--workload", "nope"], "unknown workload 'nope' (known: spike, lattice"),
        (&["--workload", "spike", "--seed", "12x"], "--seed: '12x' is not a whole number"),
        (&["--workload", "spike", "--seed", "-1"], "--seed: '-1'"),
        (&["--workload", "spike", "--seed", "18446744073709551616"], "--seed: "),
        (&["--workload", "spike", "--seconds", "0"], "--seconds: '0'"),
        (&["--workload", "spike", "--trace", "2"], "--trace: '2' is not 0 or 1"),
        (&["--workload", "spike", "--fast"], "unknown argument '--fast'"),
        (&["--workload"], "--workload needs a value"),
        (&["--seed", "1"], "--workload is required"),
    ];
    for (args, want) in cases {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: perfbench"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} printed a result: {stdout}");
    }
}

#[test]
fn help_exits_0() {
    let (code, stdout, _) = run(&["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.starts_with("usage: perfbench --workload NAME"));
}
