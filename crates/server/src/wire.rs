//! The line protocol: one request or event per line, `key=value`
//! fields, strictly parsed.
//!
//! Requests (client → server):
//!
//! ```text
//! submit tenant=ci target=aes128 analysis=hw traces=150 executions=2 \
//!        seed=0xdac2018 noise-sd=2.0 noise-baseline=30.0 weight=3
//! stats
//! shutdown
//! ```
//!
//! `tenant`, `target`, `analysis` and `traces` are required; the rest
//! default to the one-shot portfolio's defaults. Unknown keys,
//! duplicate keys and malformed values are rejected — a CI fleet wants
//! its typos loud.
//!
//! Events (server → client) are formatted by [`format_event`]; the
//! `final` line carries the portfolio-format verdict verbatim after its
//! `job=` field, so clients can diff it byte-for-byte against one-shot
//! pins.

use std::collections::HashMap;
use std::io::{self, BufRead, Read};

use sca_power::GaussianNoise;

use crate::{
    AnalysisSel, CampaignSpec, Disclosure, Event, ProgressDetail, ServerError, ServerStats,
};

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a campaign spec (with an optional tenant weight).
    Submit {
        /// The spec.
        spec: CampaignSpec,
        /// Fair-share weight for the spec's tenant.
        weight: Option<u32>,
    },
    /// Ask for the stats line.
    Stats,
    /// Ask for the full metrics dump (`metric <name>=<value>` lines,
    /// terminated by `metrics-end`).
    Metrics,
    /// Drain and stop the server.
    Shutdown,
}

fn parse_u64(key: &str, value: &str) -> Result<u64, ServerError> {
    let parsed = if let Some(hex) = value.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        value.parse()
    };
    parsed.map_err(|_| ServerError::Spec(format!("{key} must be an integer, got '{value}'")))
}

fn parse_f64(key: &str, value: &str) -> Result<f64, ServerError> {
    value
        .parse()
        .map_err(|_| ServerError::Spec(format!("{key} must be a number, got '{value}'")))
}

/// Parses one request line.
///
/// # Errors
///
/// [`ServerError::Spec`] with a client-facing message on any deviation:
/// unknown verb, unknown/duplicate/missing keys, malformed values.
pub fn parse_request(line: &str) -> Result<Request, ServerError> {
    let mut tokens = line.split_whitespace();
    let verb = tokens
        .next()
        .ok_or_else(|| ServerError::Spec("empty request".to_owned()))?;
    let mut fields: HashMap<&str, &str> = HashMap::new();
    for token in tokens {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| ServerError::Spec(format!("expected key=value, got '{token}'")))?;
        if fields.insert(key, value).is_some() {
            return Err(ServerError::Spec(format!("duplicate key '{key}'")));
        }
    }
    match verb {
        "submit" => parse_submit(&mut fields),
        "stats" | "metrics" | "shutdown" => {
            if let Some(key) = fields.keys().next() {
                return Err(ServerError::Spec(format!(
                    "'{verb}' takes no fields, got '{key}'"
                )));
            }
            Ok(match verb {
                "stats" => Request::Stats,
                "metrics" => Request::Metrics,
                _ => Request::Shutdown,
            })
        }
        other => Err(ServerError::Spec(format!("unknown request '{other}'"))),
    }
}

fn parse_submit(fields: &mut HashMap<&str, &str>) -> Result<Request, ServerError> {
    let mut take = |key: &str| fields.remove(key).map(str::to_owned);
    let required = |key: &str, value: Option<String>| {
        value.ok_or_else(|| ServerError::Spec(format!("missing required key '{key}'")))
    };
    let tenant = required("tenant", take("tenant"))?;
    let target = required("target", take("target"))?;
    let analysis = AnalysisSel::parse(&required("analysis", take("analysis"))?)?;
    let traces = parse_u64("traces", &required("traces", take("traces"))?)?;
    let executions_per_trace = take("executions")
        .map(|v| parse_u64("executions", &v))
        .transpose()?
        .unwrap_or(8);
    let seed = take("seed")
        .map(|v| parse_u64("seed", &v))
        .transpose()?
        .unwrap_or(0xdac_2018);
    let bare = GaussianNoise::bare_metal();
    let sd = take("noise-sd")
        .map(|v| parse_f64("noise-sd", &v))
        .transpose()?
        .unwrap_or(bare.sd);
    let baseline = take("noise-baseline")
        .map(|v| parse_f64("noise-baseline", &v))
        .transpose()?
        .unwrap_or(bare.baseline);
    let weight = take("weight")
        .map(|v| parse_u64("weight", &v))
        .transpose()?
        .map(|w| u32::try_from(w).unwrap_or(u32::MAX));
    if let Some(key) = fields.keys().next() {
        return Err(ServerError::Spec(format!("unknown key '{key}'")));
    }
    Ok(Request::Submit {
        spec: CampaignSpec {
            tenant,
            target,
            analysis,
            traces,
            executions_per_trace,
            seed,
            noise: GaussianNoise { sd, baseline },
        },
        weight,
    })
}

/// Formats one event as its wire line.
#[must_use]
pub fn format_event(event: &Event) -> String {
    match event {
        Event::Accepted { job, coalesced } => {
            format!("accepted job={job} coalesced={coalesced}")
        }
        Event::Progress { job, snapshot } => {
            let head = format!(
                "progress job={job} traces={}/{}",
                snapshot.traces, snapshot.total
            );
            match &snapshot.detail {
                ProgressDetail::Cpa {
                    rank,
                    peak,
                    disclosure,
                } => {
                    let disclosure = match disclosure {
                        Disclosure::Measured(at) => format!("{at}"),
                        Disclosure::Estimated(n) => format!("~{n}"),
                        Disclosure::Pending => "pending".to_owned(),
                    };
                    format!("{head} rank={rank} peak={peak:.6} disclosure={disclosure}")
                }
                ProgressDetail::Tvla { max_t } => match max_t {
                    Some(t) => format!("{head} max-t={t:.6}"),
                    None => format!("{head} max-t=pending"),
                },
            }
        }
        Event::Final { job, line } => format!("final job={job} {line}"),
        Event::Failed { job, message } => format!("failed job={job} {message}"),
        Event::Done { job } => format!("done job={job}"),
    }
}

/// Formats the stats line. New fields are only ever appended, so
/// clients splitting on `key=value` pairs keep working.
#[must_use]
pub fn format_stats(stats: &ServerStats) -> String {
    format!(
        "stats submitted={} coalesced={} rejected={} completed={} failed={} \
         slices={} store-served={} queue-peak={}",
        stats.submitted,
        stats.coalesced,
        stats.rejected,
        stats.completed,
        stats.failed,
        stats.slices,
        stats.store_served,
        stats.queue_peak,
    )
}

/// The longest request line a connection may send, in bytes before the
/// newline. Real requests are a few hundred bytes; the cap keeps a
/// client that never sends a newline from growing the server's buffer
/// without bound.
pub const MAX_REQUEST_LINE: usize = 4096;

/// One read of [`read_request_line`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestLine {
    /// A line, without its `\n` or `\r\n`.
    Line(String),
    /// The line ran past [`MAX_REQUEST_LINE`] bytes: the caller replies
    /// `rejected request line exceeds MAX_REQUEST_LINE bytes` and closes
    /// the connection (the rest of the line is never read).
    TooLong,
    /// The stream ended.
    End,
}

/// Reads one request line into `buf` (cleared first), reading at most
/// [`MAX_REQUEST_LINE`]` + 1` bytes, so `buf` never grows past that.
///
/// # Errors
///
/// I/O errors of `reader`, and [`io::ErrorKind::InvalidData`] for a line
/// that is not UTF-8.
pub fn read_request_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<RequestLine> {
    buf.clear();
    let read = reader
        .take(MAX_REQUEST_LINE as u64 + 1)
        .read_until(b'\n', buf)?;
    if read == 0 {
        return Ok(RequestLine::End);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_REQUEST_LINE {
        return Ok(RequestLine::TooLong);
    }
    let line =
        std::str::from_utf8(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(RequestLine::Line(line.to_owned()))
}

/// The bare verdict carried by a `final` event line, if `line` is one —
/// the exact text the one-shot portfolio prints for the same spec.
#[must_use]
pub fn final_verdict(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("final job=")?;
    let (_, verdict) = rest.split_once(' ')?;
    Some(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_roundtrips_with_defaults() {
        let req = parse_request(
            "submit tenant=ci target=aes128 analysis=hw traces=150 \
             executions=2 seed=0xdac2018 noise-sd=2.0 noise-baseline=30.0",
        )
        .expect("valid line");
        let Request::Submit { spec, weight } = req else {
            panic!("not a submit");
        };
        assert_eq!(spec, CampaignSpec::quick("ci"));
        assert_eq!(weight, None);

        // Defaults: portfolio's executions/seed/noise.
        let Request::Submit { spec, .. } =
            parse_request("submit tenant=t target=present80 analysis=tvla traces=20").unwrap()
        else {
            panic!("not a submit");
        };
        assert_eq!(spec.executions_per_trace, 8);
        assert_eq!(spec.seed, 0xdac_2018);
        assert_eq!(spec.noise, GaussianNoise::bare_metal());
    }

    #[test]
    fn strict_parsing_rejects_deviations() {
        for bad in [
            "",
            "submit",
            "submit tenant=t target=aes128 analysis=hw",
            "submit tenant=t target=aes128 analysis=hw traces=abc",
            "submit tenant=t target=aes128 analysis=hw traces=10 traces=20",
            "submit tenant=t target=aes128 analysis=hw traces=10 lanes=2",
            "submit tenant=t target=aes128 analysis=cpa traces=10",
            "submit orphan",
            "stats verbose=yes",
            "metrics format=json",
            "reboot",
        ] {
            assert!(parse_request(bad).is_err(), "accepted: '{bad}'");
        }
        assert_eq!(parse_request("stats").unwrap(), Request::Stats);
        assert_eq!(parse_request("metrics").unwrap(), Request::Metrics);
        assert_eq!(parse_request("shutdown").unwrap(), Request::Shutdown);
    }

    #[test]
    fn final_lines_carry_the_bare_verdict() {
        let line = "final job=3 [aes128] HW(SubBytes): SUCCESS (recovered 0x7e, true 0x7e, rank 0)";
        assert_eq!(
            final_verdict(line),
            Some("[aes128] HW(SubBytes): SUCCESS (recovered 0x7e, true 0x7e, rank 0)")
        );
        assert_eq!(final_verdict("done job=3"), None);
    }

    #[test]
    fn request_lines_are_bounded() {
        let at_cap = "a".repeat(MAX_REQUEST_LINE);
        let past_cap = "b".repeat(MAX_REQUEST_LINE + 1);
        let mut buf = Vec::new();

        let input = format!("{at_cap}\nstats\r\n{at_cap}");
        let mut reader = input.as_bytes();
        for want in [&at_cap[..], "stats", &at_cap[..]] {
            let got = read_request_line(&mut reader, &mut buf).unwrap();
            assert_eq!(got, RequestLine::Line(want.to_owned()));
        }
        assert_eq!(
            read_request_line(&mut reader, &mut buf).unwrap(),
            RequestLine::End
        );

        for input in [format!("{past_cap}\nstats\n"), past_cap.clone()] {
            let mut reader = input.as_bytes();
            let got = read_request_line(&mut reader, &mut buf).unwrap();
            assert_eq!(got, RequestLine::TooLong);
            assert_eq!(buf.len(), MAX_REQUEST_LINE + 1);
        }

        // A megabyte without a newline is refused after the cap.
        let flood = vec![b'x'; 1 << 20];
        let mut reader = &flood[..];
        let got = read_request_line(&mut reader, &mut buf).unwrap();
        assert_eq!(got, RequestLine::TooLong);
        assert_eq!(reader.len(), flood.len() - MAX_REQUEST_LINE - 1);

        let mut reader = &[0xff, b'\n'][..];
        let err = read_request_line(&mut reader, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
