//! The shard supervisor: bounded fork/exec of shard children with
//! retry-once failure handling.
//!
//! The coordinator side of a distributed fleet run spawns one child
//! process per shard (`xrbench run-fleet … --shard k/N`), reads each
//! child's [`crate::ShardState`] JSON from its stdout pipe, and merges
//! the states through [`crate::merge_fleet_shards`]. This module owns
//! the process plumbing and its failure semantics; it is deliberately
//! binary-agnostic — the caller supplies a closure that builds the
//! [`std::process::Command`] for shard `k`, so tests can substitute
//! `/bin/sh` scripts and the CLI can re-exec its own binary.
//!
//! ## Semantics
//!
//! * **Bounded concurrency, refilled on completion.** At most
//!   `max_concurrent` children are alive at once, retries included.
//!   Children are spawned in shard order, and a slot freed by *any*
//!   finished child is refilled at once — a long shard never holds up
//!   the launch of the next one behind a short sibling. Each live
//!   child has one scoped thread blocked in `wait_with_output`, which
//!   drains both pipes and sends the outcome to the coordinator over
//!   a channel, so the coordinator sleeps in a blocking receive with
//!   no polling, and buffers at most `max_concurrent` pipes.
//! * **Retry-once.** A child that exits nonzero (or fails to spawn)
//!   is retried exactly once, in the slot it freed. A second failure
//!   launches nothing new (no further shards, no further retries),
//!   drains the children still in flight, and aborts the whole run
//!   with a [`ShardError`] carrying the child's captured stderr —
//!   shard results are partial sums, so a missing shard makes the
//!   merged report silently wrong; failing loudly is the only correct
//!   option.
//! * **Determinism.** Results are returned indexed by shard, and of
//!   several failed shards the lowest one is reported, so neither the
//!   caller's merge order nor the error depends on child completion
//!   order.

use std::process::{Child, Command, Stdio};
use std::sync::mpsc;

/// A shard child failed twice (or its output pipe broke).
#[derive(Debug)]
pub struct ShardError {
    /// Which shard failed.
    pub shard: u32,
    /// What went wrong (spawn error, exit status, or pipe error).
    pub message: String,
    /// The child's captured stderr from the failing attempt (empty if
    /// it never spawned).
    pub stderr: String,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} failed after retry: {}",
            self.shard, self.message
        )?;
        if !self.stderr.is_empty() {
            write!(f, "\n--- child stderr ---\n{}", self.stderr.trim_end())?;
        }
        Ok(())
    }
}

impl std::error::Error for ShardError {}

/// One finished child attempt.
struct Attempt {
    ok: bool,
    message: String,
    stdout: String,
    stderr: String,
}

impl Attempt {
    fn failed(message: String) -> Attempt {
        Attempt {
            ok: false,
            message,
            stdout: String::new(),
            stderr: String::new(),
        }
    }

    /// Waits for `child` to exit, reading both pipes to EOF.
    fn collect(child: Child) -> Attempt {
        match child.wait_with_output() {
            Ok(out) => Attempt {
                ok: out.status.success(),
                message: if out.status.success() {
                    String::new()
                } else {
                    format!("exited with {}", out.status)
                },
                stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
                stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
            },
            Err(e) => Attempt::failed(format!("failed to collect output: {e}")),
        }
    }
}

/// Runs `num_shards` shard children with at most `max_concurrent`
/// alive at once and returns each child's stdout, indexed by shard.
///
/// `command_for(k)` builds the command for shard `k`; it is called
/// once per attempt (so a retry gets a fresh `Command`). Children
/// inherit nothing on stdin and have both output pipes captured. A
/// child that exits nonzero is retried once; see the module docs for
/// the full semantics.
///
/// # Errors
///
/// Returns the lowest-shard [`ShardError`] once every child still in
/// flight has been reaped (no zombies are left behind on the error
/// path).
///
/// # Panics
///
/// Panics if `num_shards == 0` or `max_concurrent == 0`.
pub fn supervise(
    num_shards: u32,
    max_concurrent: usize,
    command_for: &mut dyn FnMut(u32) -> Command,
) -> Result<Vec<String>, ShardError> {
    assert!(num_shards > 0, "supervisor needs at least one shard");
    assert!(max_concurrent > 0, "supervisor needs at least one slot");
    let mut results: Vec<Option<String>> = (0..num_shards).map(|_| None).collect();
    let mut first_failure: Vec<Option<Attempt>> = (0..num_shards).map(|_| None).collect();
    let mut error: Option<ShardError> = None;

    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(u32, Attempt)>();
        // Starts one attempt of `shard`. Every attempt — spawn failures
        // included — reports exactly once on `rx`, and holds its slot
        // until it has.
        let mut launch = |shard: u32| {
            let spawned = command_for(shard)
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn();
            let tx = tx.clone();
            match spawned {
                Ok(child) => {
                    scope.spawn(move || {
                        // The receiver outlives every attempt.
                        let _ = tx.send((shard, Attempt::collect(child)));
                    });
                }
                Err(e) => {
                    let _ = tx.send((shard, Attempt::failed(format!("failed to spawn: {e}"))));
                }
            }
        };
        let (mut next, mut live) = (0u32, 0usize);
        loop {
            while error.is_none() && live < max_concurrent && next < num_shards {
                launch(next);
                next += 1;
                live += 1;
            }
            if live == 0 {
                break;
            }
            let (shard, attempt) = rx.recv().expect("a live attempt always reports");
            live -= 1;
            let k = shard as usize;
            if attempt.ok {
                results[k] = Some(attempt.stdout);
                continue;
            }
            match first_failure[k].take() {
                // Retry once, in the slot this attempt just freed.
                None if error.is_none() => {
                    first_failure[k] = Some(attempt);
                    launch(shard);
                    live += 1;
                }
                // A second failure; the lowest failed shard is reported.
                Some(first) if error.as_ref().is_none_or(|e| shard < e.shard) => {
                    error = Some(ShardError {
                        shard,
                        message: format!("{} (first attempt: {})", attempt.message, first.message),
                        stderr: if attempt.stderr.is_empty() {
                            first.stderr
                        } else {
                            attempt.stderr
                        },
                    });
                }
                // The run is already failing: drain, launch nothing.
                _ => {}
            }
        }
    });

    if let Some(e) = error {
        return Err(e);
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("every shard reaped"))
        .collect())
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    fn sh(script: String) -> Command {
        let mut c = Command::new("/bin/sh");
        c.arg("-c").arg(script);
        c
    }

    #[test]
    fn collects_stdout_in_shard_order() {
        let out = supervise(4, 2, &mut |k| sh(format!("printf 'shard-%s' {k}")))
            .expect("all children succeed");
        assert_eq!(out, ["shard-0", "shard-1", "shard-2", "shard-3"]);
    }

    #[test]
    fn concurrency_window_of_one_still_completes() {
        let out = supervise(3, 1, &mut |k| sh(format!("echo {k}"))).unwrap();
        assert_eq!(out, ["0\n", "1\n", "2\n"]);
    }

    #[test]
    fn failing_child_is_retried_once() {
        // First attempt fails (marker file absent → create it and exit
        // 1); the retry sees the marker and succeeds. The marker lives
        // under the test's target tmpdir.
        let dir = std::env::temp_dir().join(format!("xrbench-retry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let marker = dir.join("attempted");
        let _ = std::fs::remove_file(&marker);
        let script = format!(
            "if [ -f {m} ]; then echo recovered; else touch {m}; echo boom >&2; exit 1; fi",
            m = marker.display()
        );
        let out = supervise(1, 1, &mut |_| sh(script.clone())).expect("retry succeeds");
        assert_eq!(out, ["recovered\n"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn double_failure_surfaces_child_stderr() {
        let err = supervise(2, 2, &mut |k| {
            if k == 1 {
                sh("echo 'shard exploded' >&2; exit 3".to_string())
            } else {
                sh("echo fine".to_string())
            }
        })
        .expect_err("shard 1 fails twice");
        assert_eq!(err.shard, 1);
        assert!(err.message.contains("exit"), "{}", err.message);
        assert!(err.stderr.contains("shard exploded"), "{}", err.stderr);
        let display = err.to_string();
        assert!(display.contains("shard 1 failed after retry"), "{display}");
        assert!(display.contains("shard exploded"), "{display}");
    }

    #[test]
    fn a_child_killed_by_sigkill_is_retried_once_then_fails_the_run() {
        let dir = std::env::temp_dir().join(format!("xrbench-sigkill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let attempts = dir.join("attempts");
        let _ = std::fs::remove_file(&attempts);
        let err = supervise(2, 2, &mut |k| {
            if k == 0 {
                sh(format!(
                    "echo attempt >> {}; echo partial >&2; kill -9 $$",
                    attempts.display()
                ))
            } else {
                sh("echo fine".to_string())
            }
        })
        .expect_err("shard 0 is killed on both attempts");
        assert_eq!(err.shard, 0);
        assert!(err.message.contains("signal"), "{}", err.message);
        assert!(err.stderr.contains("partial"), "{}", err.stderr);
        let count = std::fs::read_to_string(&attempts).unwrap().lines().count();
        assert_eq!(count, 2, "one attempt and exactly one retry");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unspawnable_command_errors_after_retry() {
        let err = supervise(1, 1, &mut |_| {
            Command::new("/nonexistent/xrbench-no-such-bin")
        })
        .expect_err("spawn fails twice");
        assert_eq!(err.shard, 0);
        assert!(err.message.contains("spawn"), "{}", err.message);
    }

    #[test]
    fn a_finished_child_frees_its_slot_for_the_next_shard() {
        // Shard 0 waits (up to ~5 s) for a marker only shard 2
        // creates, and shard 1 exits at once. With two slots, shard 2
        // can only start in the slot shard 1 frees; reaping in shard
        // order would leave it queued behind shard 0 until shard 0
        // timed out.
        let dir = std::env::temp_dir().join(format!("xrbench-refill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let marker = dir.join("shard-2-ran");
        let _ = std::fs::remove_file(&marker);
        let out = supervise(3, 2, &mut |k| {
            sh(match k {
                0 => format!(
                    "i=0; while [ ! -f {m} ] && [ $i -lt 500 ]; do sleep 0.01; i=$((i+1)); done; \
                     [ -f {m} ] && echo waited",
                    m = marker.display()
                ),
                1 => "echo quick".to_string(),
                _ => format!("touch {m} && echo marker", m = marker.display()),
            })
        })
        .expect("shard 2 starts while shard 0 waits");
        assert_eq!(out, ["waited\n", "quick\n", "marker\n"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_retry_once_the_run_has_already_failed() {
        // Shard 0 fails at once on both attempts; its second attempt
        // first creates a marker. Shard 1 waits (up to ~5 s) for that
        // marker, then gives the coordinator ~0.3 s to record shard 0's
        // error before failing too. Its first failure thus arrives
        // after the run has failed: it is not retried, and shard 2,
        // queued behind the two busy slots, never launches.
        let dir = std::env::temp_dir().join(format!("xrbench-no-retry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let marker = dir.join("shard-0-retried");
        let _ = std::fs::remove_file(&marker);
        let mut launches = [0u32; 3];
        let err = supervise(3, 2, &mut |k| {
            launches[k as usize] += 1;
            sh(match (k, launches[k as usize]) {
                (0, 1) => "exit 1".to_string(),
                (0, _) => format!("touch {m}; exit 1", m = marker.display()),
                (1, _) => format!(
                    "i=0; while [ ! -f {m} ] && [ $i -lt 500 ]; do sleep 0.01; i=$((i+1)); done; \
                     sleep 0.3; exit 1",
                    m = marker.display()
                ),
                _ => "echo launched".to_string(),
            })
        })
        .expect_err("shard 0 fails twice");
        assert_eq!(err.shard, 0);
        assert!(err.to_string().contains("shard 0"), "{err}");
        assert_eq!(launches, [2, 1, 0], "launches per shard");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_concurrency_rejected() {
        let _ = supervise(1, 0, &mut |_| sh("true".to_string()));
    }
}
