//! The host stamp printed with every result: where and with what the
//! numbers were measured.

use nectar_sim::json::json_escape;

fn first_line_with(path: &str, prefix: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(prefix))?;
    Some(line.split_once(':').map_or(line, |(_, v)| v).trim().to_string())
}

/// The checkout's git revision, read from `.git` in the working
/// directory without running git (which would search parent
/// directories). `unknown` outside a git checkout.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One-line JSON object: cores, CPU model, kernel, compiler, git
/// revision, build profile.
pub fn stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = first_line_with("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |k| k.trim().to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"kernel\": \"{}\", \"rustc\": \"{}\", \
         \"git\": \"{}\", \"profile\": \"{}\"}}",
        json_escape(&cpu),
        json_escape(&kernel),
        json_escape(env!("PERFBENCH_RUSTC")),
        json_escape(&git_revision()),
        env!("PERFBENCH_PROFILE"),
    )
}
