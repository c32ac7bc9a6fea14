//! Where a result came from: commit, host, kernel path.

use crate::json::Value;

/// The checked-out commit, read from `.git` without running git; a
/// checkout that is not a repository reads "unknown".
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn to_json() -> Value {
    Value::obj(vec![
        ("git_rev", Value::Str(git_rev())),
        ("host_cores", Value::Num(host_cores() as f64)),
        ("cpu_model", Value::Str(cpu_model())),
        (
            "linalg_kernel_path",
            Value::str(linalg::kernel_path().name()),
        ),
        (
            "linalg_kernel_override",
            std::env::var("LINALG_KERNEL").map_or(Value::Null, Value::Str),
        ),
        (
            "build",
            Value::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}
