//! `raw-bench top` — a live terminal dashboard over a running compile daemon.
//!
//! Polls the daemon's `metrics` endpoint on an interval and redraws a compact
//! one-screen summary: request mix and rate, memo and block-cache
//! effectiveness, wall/phase latency percentiles, connection and client-row
//! occupancy. Rates are computed from inter-frame counter deltas, so the
//! first frame shows totals only.
//!
//! Each scrape is the daemon's Prometheus text, read back by
//! `raw_telemetry::Snapshot::parse_prometheus`: the daemon's one read-out,
//! which `serve --stats` folds too, so both show the same percentiles.

use crate::args::FlagParser;
use raw_telemetry::Snapshot;
use rawcc::service::Client;
use rawcc::wire::MetricsFormat;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Arguments of the `top` subcommand.
pub struct TopArgs {
    /// Address of the running daemon.
    pub addr: String,
    /// Poll interval in milliseconds.
    pub interval_ms: u64,
    /// Number of frames to render; 0 keeps polling until the daemon goes
    /// away.
    pub frames: usize,
    /// Print frames sequentially instead of clearing the terminal.
    pub no_clear: bool,
}

impl TopArgs {
    /// Parses the argument list following the `top` subcommand word.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags or a missing `--addr`.
    pub fn parse(args: &[String]) -> Result<TopArgs, String> {
        let mut out = TopArgs {
            addr: String::new(),
            interval_ms: 1000,
            frames: 0,
            no_clear: false,
        };
        let mut p = FlagParser::new("top", args);
        while let Some(flag) = p.next_flag() {
            match flag {
                "--addr" => out.addr = p.value()?.clone(),
                "--interval-ms" => out.interval_ms = p.value_parsed("an integer")?,
                "--frames" => out.frames = p.value_parsed("an integer")?,
                "--no-clear" => out.no_clear = true,
                _ => return Err(p.unknown()),
            }
        }
        if out.addr.is_empty() || out.addr.ends_with(":0") {
            return Err("top needs --addr of a running daemon".into());
        }
        Ok(out)
    }
}

/// One parsed scrape and when it was taken.
struct Frame {
    snapshot: Snapshot,
    at: Instant,
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

/// Counter rate between two frames, per second (0 on the first frame).
fn rate(prev: Option<&Frame>, cur: &Frame, name: &str, labels: &[(&str, &str)]) -> f64 {
    let Some(prev) = prev else { return 0.0 };
    let dt = cur.at.duration_since(prev.at).as_secs_f64();
    if dt <= 0.0 {
        return 0.0;
    }
    let [now, then] = [cur, prev].map(|f| f.snapshot.scalar(name, labels));
    now.saturating_sub(then) as f64 / dt
}

/// What `top` and `serve --stats` print for a daemon whose read-out is
/// hidden.
pub(crate) fn disabled_notice(addr: &str) -> String {
    format!("rawcc-serve @ {addr} — telemetry disabled (restart without --no-telemetry)\n")
}

/// Renders one dashboard frame. Pure string building, so tests can assert on
/// it without a terminal.
fn render(addr: &str, prev: Option<&Frame>, cur: &Frame) -> String {
    let s = &cur.snapshot;
    if s.scalar("rawcc_telemetry_enabled", &[]) == 0 {
        return disabled_notice(addr);
    }
    let mut out = String::new();
    let uptime_s = s.scalar("rawcc_uptime_us", &[]) as f64 / 1e6;
    let _ = writeln!(out, "rawcc-serve @ {addr} — up {uptime_s:.1}s");

    let requests = |kind| s.scalar("rawcc_requests_total", &[("kind", kind)]);
    let _ = writeln!(
        out,
        "requests  compile {} ({:.1}/s)  ping {}  metrics {}  errors {}",
        requests("compile"),
        rate(prev, cur, "rawcc_requests_total", &[("kind", "compile")]),
        requests("ping"),
        requests("metrics"),
        s.scalar_sum("rawcc_request_errors_total"),
    );

    let served = s.scalar("rawcc_compile_responses_total", &[]);
    let memo_hits = s.scalar("rawcc_memo_hits_total", &[]);
    let memo_pct = if served > 0 {
        memo_hits as f64 * 100.0 / served as f64
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "memo      hits {memo_hits} ({memo_pct:.1}% of {served} served)  entries {}  \
         resident {:.1} MiB",
        s.scalar("rawcc_memo_entries", &[]),
        mib(s.scalar("rawcc_memo_resident_bytes", &[])),
    );

    let hits = |tier| s.scalar("rawcc_cache_hits_total", &[("tier", tier)]);
    let _ = writeln!(
        out,
        "cache     mem hits {} ({:.1}/s)  disk hits {}  misses {}  coalesced {}  \
         entries {}  resident {:.1} MiB",
        hits("mem"),
        rate(prev, cur, "rawcc_cache_hits_total", &[("tier", "mem")]),
        hits("disk"),
        s.scalar("rawcc_cache_misses_total", &[]),
        s.scalar("rawcc_cache_coalesced_total", &[]),
        s.scalar("rawcc_cache_entries", &[]),
        mib(s.scalar("rawcc_cache_resident_bytes", &[])),
    );

    if let Some(wall) = s.hist("rawcc_compile_wall_us", &[]) {
        let _ = writeln!(
            out,
            "latency   p50 {}µs  p90 {}µs  p99 {}µs  mean {}µs  (n={})",
            wall.quantile(0.50),
            wall.quantile(0.90),
            wall.quantile(0.99),
            wall.sum.checked_div(wall.count).unwrap_or(0),
            wall.count,
        );
    }
    let mut phases = String::new();
    for phase in raw_telemetry::SPAN_PHASE_NAMES {
        let hist = s.hist("rawcc_compile_phase_us", &[("phase", phase)]);
        if let Some(h) = hist.filter(|h| h.count > 0) {
            let _ = write!(phases, "{phase} {}  ", h.quantile(0.5));
        }
    }
    if !phases.is_empty() {
        let _ = writeln!(out, "phase p50 (µs)  {}", phases.trim_end());
    }

    let _ = writeln!(
        out,
        "conns     open {}  opened {}  closed {}   clients {}",
        s.scalar("rawcc_connections_open", &[]),
        s.scalar("rawcc_connections_opened_total", &[]),
        s.scalar("rawcc_connections_closed_total", &[]),
        s.series_count("rawcc_client_requests_total"),
    );
    out
}

/// Runs the `top` subcommand: polls and redraws until `--frames` runs out
/// (or forever with `--frames 0`). Returns the last rendered frame, so
/// wrappers and tests can assert on the final state.
///
/// # Errors
///
/// Returns a message on connection or protocol failures; a daemon that goes
/// away between frames ends an unbounded run cleanly.
pub fn top_command(args: &TopArgs) -> Result<String, String> {
    let mut client =
        Client::connect(args.addr.as_str(), "raw-bench-top").map_err(|e| e.to_string())?;
    let mut prev: Option<Frame> = None;
    let mut frame_no = 0usize;
    let mut last = String::new();
    loop {
        frame_no += 1;
        let resp = match client.metrics(MetricsFormat::Prometheus) {
            Ok(resp) => resp,
            // An unbounded watch ends quietly when the daemon shuts down.
            Err(e) if args.frames == 0 && frame_no > 1 => {
                last.push_str(&format!("daemon gone: {e}\n"));
                return Ok(last);
            }
            Err(e) => return Err(e.to_string()),
        };
        let frame = Frame {
            snapshot: Snapshot::parse_prometheus(&resp.body)?,
            at: Instant::now(),
        };
        last = render(&args.addr, prev.as_ref(), &frame);
        if args.no_clear {
            println!("{last}");
        } else {
            // ANSI clear + home, like watch(1).
            print!("\x1b[2J\x1b[H{last}");
        }
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        prev = Some(frame);
        if args.frames > 0 && frame_no >= args.frames {
            return Ok(last);
        }
        std::thread::sleep(Duration::from_millis(args.interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rawcc::service::{serve, ServeOptions};

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_top_flags() {
        assert!(TopArgs::parse(&[]).is_err(), "addr is mandatory");
        let p = TopArgs::parse(&s(&[
            "--addr",
            "127.0.0.1:7100",
            "--interval-ms",
            "250",
            "--frames",
            "3",
            "--no-clear",
        ]))
        .unwrap();
        assert_eq!(p.addr, "127.0.0.1:7100");
        assert_eq!((p.interval_ms, p.frames), (250, 3));
        assert!(p.no_clear);
        assert!(TopArgs::parse(&s(&["--addr", "x", "--bogus"])).is_err());
    }

    fn frame(text: &str) -> Frame {
        Frame {
            snapshot: Snapshot::parse_prometheus(text).unwrap(),
            at: Instant::now(),
        }
    }

    #[test]
    fn frame_parses_and_renders_a_scrape() {
        let frame = frame(
            "# TYPE rawcc_telemetry_enabled gauge\n\
             rawcc_telemetry_enabled 1\n\
             # TYPE rawcc_uptime_us gauge\n\
             rawcc_uptime_us 2500000\n\
             # TYPE rawcc_requests_total counter\n\
             rawcc_requests_total{kind=\"compile\"} 7\n\
             rawcc_requests_total{kind=\"ping\"} 2\n\
             # TYPE rawcc_request_errors_total counter\n\
             rawcc_request_errors_total{code=\"malformed\"} 1\n\
             rawcc_request_errors_total{code=\"a_new_code\"} 2\n\
             # TYPE rawcc_compile_wall_us histogram\n\
             rawcc_compile_wall_us_bucket{le=\"1000\"} 3\n\
             rawcc_compile_wall_us_bucket{le=\"2000\"} 4\n\
             rawcc_compile_wall_us_bucket{le=\"+Inf\"} 5\n\
             rawcc_compile_wall_us_sum 99000\n\
             rawcc_compile_wall_us_count 5\n",
        );
        let text = render("127.0.0.1:7100", None, &frame);
        assert!(text.contains("up 2.5s"), "{text}");
        assert!(text.contains("compile 7"), "{text}");
        assert!(text.contains("ping 2"), "{text}");
        // Every code of the error family counts, known or not.
        assert!(text.contains("errors 3"), "{text}");
        // The +Inf sample ranks too: p99 is the overflow's last finite bound.
        assert!(text.contains("p50 1000µs  p90 2000µs  p99 2000µs"));
        assert!(text.contains("mean 19800µs  (n=5)"), "{text}");
    }

    #[test]
    fn disabled_daemon_renders_a_notice() {
        let frame = frame("# TYPE rawcc_telemetry_enabled gauge\nrawcc_telemetry_enabled 0\n");
        let text = render("a", None, &frame);
        assert!(text.contains("telemetry disabled"), "{text}");
    }

    #[test]
    fn top_renders_live_daemon() {
        // End-to-end: real daemon, real wire round-trips, two frames with
        // rate computation between them.
        let handle = serve(&ServeOptions::default()).unwrap();
        let addr = handle.addr().to_string();
        let mut client = Client::connect(handle.addr(), "top-test").unwrap();
        client.ping(b"warm").unwrap();
        let args = TopArgs {
            addr,
            interval_ms: 10,
            frames: 2,
            no_clear: true,
        };
        let text = top_command(&args).unwrap();
        assert!(text.contains("rawcc-serve @ "), "{text}");
        assert!(text.contains("requests"), "{text}");
        // The kind counter bumps before the snapshot renders, so frame 2's
        // scrape counts both itself and frame 1.
        assert!(text.contains("metrics 2"), "{text}");
        client.shutdown().unwrap();
        handle.join();
    }
}
