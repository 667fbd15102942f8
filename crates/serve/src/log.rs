//! The request log: one JSON line per record, written straight to its
//! target (`-` stdout, `stderr`, or a file). Each line is a flat object
//! whose leading fields are `ts_ms` (Unix milliseconds), `level` and
//! `event`; the record's own fields follow in order.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};
use whart_json::Json;

/// Record severity, most urgent first; a log admits its level and above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// A request or subsystem failed.
    Error,
    /// Degraded but proceeding (e.g. queue-overflow rejections).
    Warn,
    /// The per-request records.
    Info,
    /// Diagnostics.
    Debug,
}

impl Level {
    /// The lowercase name written on lines and accepted by `--log-level`.
    pub fn as_str(self) -> &'static str {
        ["error", "warn", "info", "debug"][self as usize]
    }

    /// Parses a `--log-level` value (case-insensitive).
    ///
    /// # Errors
    ///
    /// Names the accepted levels.
    pub fn parse(text: &str) -> Result<Level, String> {
        match text.to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            other => Err(format!(
                "unknown log level '{other}' (expected error, warn, info or debug)"
            )),
        }
    }
}

struct Sink {
    level: Level,
    target: Mutex<Box<dyn Write + Send>>,
    /// Lines lost to write failures: logging never takes the service down.
    write_errors: AtomicU64,
}

/// A cloneable handle to the request log, or a no-op stand-in (the
/// default).
#[derive(Clone, Default)]
pub struct RequestLog {
    sink: Option<Arc<Sink>>,
}

impl RequestLog {
    /// Opens `target` (`-` stdout, `stderr`, anything else a file path,
    /// created or truncated) admitting records at `level` and above.
    ///
    /// # Errors
    ///
    /// When a file target cannot be created.
    pub fn open(target: &str, level: Level) -> Result<RequestLog, String> {
        let target: Box<dyn Write + Send> = match target {
            "-" => Box::new(std::io::stdout()),
            "stderr" => Box::new(std::io::stderr()),
            path => Box::new(
                std::fs::File::create(path)
                    .map_err(|e| format!("cannot open log file {path}: {e}"))?,
            ),
        };
        Ok(RequestLog {
            sink: Some(Arc::new(Sink {
                level,
                target: Mutex::new(target),
                write_errors: AtomicU64::new(0),
            })),
        })
    }

    /// Whether a record at `level` would be written; guard field
    /// rendering with this.
    pub fn admits(&self, level: Level) -> bool {
        self.sink.as_ref().is_some_and(|s| level <= s.level)
    }

    /// Writes one record, if its level is admitted.
    pub fn write<'a>(
        &self,
        level: Level,
        event: &str,
        fields: impl IntoIterator<Item = (&'a str, Json)>,
    ) {
        let Some(sink) = self.sink.as_ref().filter(|s| level <= s.level) else {
            return;
        };
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let mut line = vec![
            ("ts_ms".to_owned(), Json::from(ts_ms)),
            ("level".to_owned(), Json::from(level.as_str())),
            ("event".to_owned(), Json::from(event)),
        ];
        line.extend(fields.into_iter().map(|(k, v)| (k.to_owned(), v)));
        let mut bytes = Json::Object(line).to_compact().into_bytes();
        bytes.push(b'\n');
        let mut target = sink.target.lock().expect("log target");
        if target
            .write_all(&bytes)
            .and_then(|()| target.flush())
            .is_err()
        {
            sink.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Lines lost to write failures so far.
    pub fn write_errors(&self) -> u64 {
        self.sink
            .as_ref()
            .map_or(0, |s| s.write_errors.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join("whart-serve-log-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_str().unwrap().to_string()
    }

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(Level::parse("info"), Ok(Level::Info));
        assert_eq!(Level::parse("WARN"), Ok(Level::Warn));
        assert_eq!(Level::parse("warning"), Ok(Level::Warn));
        assert_eq!(Level::parse("debug").unwrap().as_str(), "debug");
        assert!(Level::parse("verbose").unwrap_err().contains("log level"));
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn file_target_gets_schema_lines_filtered_by_level() {
        let path = temp_path("lines.jsonl");
        let log = RequestLog::open(&path, Level::Warn).unwrap();
        assert!(log.admits(Level::Error) && !log.admits(Level::Info));
        log.write(Level::Info, "refused", [("k", Json::from(1u64))]);
        log.write(
            Level::Warn,
            "queue_overflow",
            [
                ("request_id", Json::from("req-2")),
                ("code", Json::from(503u64)),
            ],
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        let line = Json::parse(text.trim()).unwrap();
        assert!(line["ts_ms"].as_u64().is_some());
        assert_eq!(line["level"].as_str(), Some("warn"));
        assert_eq!(line["event"].as_str(), Some("queue_overflow"));
        assert_eq!(line["code"].as_u64(), Some(503));
        assert_eq!(log.write_errors(), 0);
    }

    #[test]
    fn targets_map_like_the_cli_flag_and_default_is_disabled() {
        assert!(RequestLog::open("-", Level::Info).is_ok());
        assert!(RequestLog::open("stderr", Level::Info).is_ok());
        let missing = RequestLog::open("/nonexistent-dir-xyz/log.jsonl", Level::Info);
        assert!(missing.is_err_and(|e| e.contains("cannot open log file")));
        let off = RequestLog::default();
        assert!(!off.admits(Level::Error));
        off.write(Level::Error, "boom", []);
    }
}
