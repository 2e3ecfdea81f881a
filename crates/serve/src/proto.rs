//! The versioned JSONL request/response protocol.
//!
//! One JSON object per line in each direction. Every request carries the
//! protocol version (`"v": 1`), a client-chosen numeric `id` (echoed on
//! every response to that request) and a `req` discriminator; work
//! requests may add `priority` (higher runs first, default 0) and
//! `deadline_ms` (a per-request wall-clock budget — the server answers
//! with a typed `partial` instead of blowing through it). An `eval_pu`
//! is answered as it arrives, so `priority` orders only queued searches
//! (it is still validated on every request), and of the deadlines only
//! `deadline_ms: 0` expires before an evaluation ends.
//!
//! Grammar (responses mirror `id`):
//!
//! ```text
//! request  = { "v":1, "id":N, "req":KIND, ...kind fields...,
//!              "priority":P?, "deadline_ms":D? }
//! KIND     = "eval_pu" | "segment" | "codesign" | "status"
//!          | "metrics" | "cancel" | "shutdown"
//! response = { "id":N, "kind":"done",     "result":{...}, "trace":T? }
//!          | { "id":N, "kind":"partial",  "reason":R, "completed_gens":G,
//!              "planned_gens":T, "result":{...}?, "trace":T? }
//!          | { "id":N, "kind":"progress", "state":"running", "trace":T? }
//!          | { "id":N, "kind":"error",    "code":C, "message":M, "trace":T? }
//! R        = "deadline" | "generation budget" | "cancelled"
//! ```
//!
//! `eval_pu` carries `layer` (the ten `LayerDesc` fields), `pu`
//! (`rows`, `cols`, optional `act_buf`, `wgt_buf`, `freq_mhz`) and
//! `dataflow` (`"WS"`, `"OS"` or `"best"`). `segment`/`codesign` name a
//! zoo `model` and a `budget` preset; `codesign` adds `method` plus
//! optional `hw_iters`, `seg_iters`, `seed`. `cancel` names the `target`
//! request id to interrupt.
//!
//! `metrics` reports the request-grained telemetry the server keeps
//! always-on (independent of `OBS_LEVEL`): uptime, per-stage latency
//! quantiles (parse, then eval and respond for an `eval_pu`, or queue
//! wait, search and respond for a search; in microseconds,
//! p50/p90/p99/p999 within ~3.1%) and per-verb end-to-end quantiles.
//! With `"flight":true` the response also embeds a live flight-recorder
//! dump (the last N events per thread, globally ordered). Like `status`
//! it is answered inline, never queued.
//!
//! Every response carries `trace` — the server-minted trace id of the
//! request it answers (omitted only for lines rejected before an id was
//! assigned). The same id tags flight-recorder events and Chrome trace
//! spans emitted while that request executed, linking wire responses to
//! in-process telemetry.

use crate::json::{obj, parse, Json};
use pucost::{Dataflow, LayerDesc, PuConfig};

/// Protocol version this server speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// Dataflow selector for `eval_pu`: a fixed dataflow or the
/// latency-first best-of-both probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataflowSel {
    /// Evaluate exactly this dataflow.
    Fixed(Dataflow),
    /// Evaluate both and return the winner ([`pucost::best_dataflow`]).
    Best,
}

/// One parsed, validated client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate one `(layer, PU, dataflow)` triple with the cost model.
    EvalPu {
        /// The layer to cost.
        layer: LayerDesc,
        /// The PU configuration to cost it on.
        pu: PuConfig,
        /// Which dataflow(s) to probe.
        dataflow: DataflowSel,
    },
    /// Run the AutoSeg engine sweep for a zoo model under a named budget.
    Segment {
        /// Zoo model name (`nnmodel::zoo::by_name`).
        model: String,
        /// Budget preset name (`eyeriss`, `zu3eg`, ...).
        budget: String,
    },
    /// Run one co-design method (anytime, checkpointed server-side).
    Codesign {
        /// Zoo model name.
        model: String,
        /// Budget preset name.
        budget: String,
        /// Method label (`mip-heuristic`, `baye-baye`, ...).
        method: String,
        /// Hardware-search iterations (default: smoke budget).
        hw_iters: usize,
        /// Segmentation-search iterations (default: smoke budget).
        seg_iters: usize,
        /// Search seed.
        seed: u64,
    },
    /// Report live service metrics.
    Status,
    /// Report request-grained telemetry: uptime, per-stage and per-verb
    /// latency quantiles; optionally a flight-recorder dump.
    Metrics {
        /// Embed a live flight-recorder dump in the response.
        flight: bool,
    },
    /// Cancel an earlier request on the same connection by its id.
    Cancel {
        /// The id of the request to cancel.
        target: u64,
    },
    /// Graceful shutdown: checkpoint in-flight searches, stop accepting
    /// work.
    Shutdown,
}

/// A request line together with its envelope fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client-chosen request id, echoed on every response.
    pub id: u64,
    /// Scheduling priority; higher runs first (default 0).
    pub priority: i64,
    /// Per-request wall-clock budget in milliseconds.
    pub deadline_ms: Option<u64>,
    /// The request payload.
    pub request: Request,
}

/// A typed request-line rejection (answered as a `kind:"error"` line).
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoError {
    /// Stable machine-readable code.
    pub code: &'static str,
    /// Human-oriented detail.
    pub message: String,
    /// The request id, when the line got far enough to carry one.
    pub id: Option<u64>,
}

impl ProtoError {
    fn new(code: &'static str, message: impl Into<String>, id: Option<u64>) -> Self {
        Self {
            code,
            message: message.into(),
            id,
        }
    }
}

fn req_u64(o: &Json, key: &str, id: Option<u64>) -> Result<u64, ProtoError> {
    o.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtoError::new("bad-request", format!("missing/invalid `{key}`"), id))
}

fn req_usize(o: &Json, key: &str, id: Option<u64>) -> Result<usize, ProtoError> {
    Ok(pucost::util::usize_of(req_u64(o, key, id)?))
}

fn req_bool(o: &Json, key: &str, id: Option<u64>) -> Result<bool, ProtoError> {
    o.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| ProtoError::new("bad-request", format!("missing/invalid `{key}`"), id))
}

fn req_str<'a>(o: &'a Json, key: &str, id: Option<u64>) -> Result<&'a str, ProtoError> {
    o.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::new("bad-request", format!("missing/invalid `{key}`"), id))
}

/// Parses one request line into its envelope.
///
/// # Errors
///
/// A typed [`ProtoError`] for malformed JSON, version mismatch, missing
/// or ill-typed fields, or an unknown `req` kind.
pub fn parse_request(line: &str) -> Result<Envelope, ProtoError> {
    let v = parse(line)
        .map_err(|e| ProtoError::new("bad-json", e.to_string(), None))?;
    if v.as_obj().is_none() {
        return Err(ProtoError::new("bad-request", "request is not an object", None));
    }
    let id = v.get("id").and_then(Json::as_u64);
    let version = req_u64(&v, "v", id)?;
    if version != PROTOCOL_VERSION {
        return Err(ProtoError::new(
            "bad-version",
            format!("protocol version {version} unsupported (this server speaks {PROTOCOL_VERSION})"),
            id,
        ));
    }
    let id = req_u64(&v, "id", id)?;
    let priority = match v.get("priority") {
        None => 0,
        Some(p) => {
            let n = p.as_f64().ok_or_else(|| {
                ProtoError::new("bad-request", "`priority` must be a number", Some(id))
            })?;
            // Integral within i64 range, negative allowed. Exact-zero
            // fract is the integrality test. lint: allow(float-eq)
            if !n.is_finite() || n.fract() != 0.0 || n.abs() > 9.0e15 {
                return Err(ProtoError::new(
                    "bad-request",
                    "`priority` must be an integer",
                    Some(id),
                ));
            }
            let mag = pucost::util::trunc_u64(n.abs());
            let mag = i64::try_from(mag).unwrap_or(i64::MAX);
            if n < 0.0 {
                -mag
            } else {
                mag
            }
        }
    };
    let deadline_ms = match v.get("deadline_ms") {
        None => None,
        Some(d) => Some(d.as_u64().ok_or_else(|| {
            ProtoError::new("bad-request", "`deadline_ms` must be a non-negative integer", Some(id))
        })?),
    };
    let kind = req_str(&v, "req", Some(id))?;
    let request = match kind {
        "eval_pu" => parse_eval_pu(&v, id)?,
        "segment" => Request::Segment {
            model: req_str(&v, "model", Some(id))?.to_string(),
            budget: req_str(&v, "budget", Some(id))?.to_string(),
        },
        "codesign" => Request::Codesign {
            model: req_str(&v, "model", Some(id))?.to_string(),
            budget: req_str(&v, "budget", Some(id))?.to_string(),
            method: req_str(&v, "method", Some(id))?.to_string(),
            hw_iters: match v.get("hw_iters") {
                None => 24,
                Some(_) => req_usize(&v, "hw_iters", Some(id))?,
            },
            seg_iters: match v.get("seg_iters") {
                None => 32,
                Some(_) => req_usize(&v, "seg_iters", Some(id))?,
            },
            seed: match v.get("seed") {
                None => 3,
                Some(_) => req_u64(&v, "seed", Some(id))?,
            },
        },
        "status" => Request::Status,
        "metrics" => Request::Metrics {
            flight: match v.get("flight") {
                None => false,
                Some(_) => req_bool(&v, "flight", Some(id))?,
            },
        },
        "cancel" => Request::Cancel {
            target: req_u64(&v, "target", Some(id))?,
        },
        "shutdown" => Request::Shutdown,
        other => {
            return Err(ProtoError::new(
                "unknown-request",
                format!("unknown req kind {other:?}"),
                Some(id),
            ))
        }
    };
    Ok(Envelope {
        id,
        priority,
        deadline_ms,
        request,
    })
}

fn parse_eval_pu(v: &Json, id: u64) -> Result<Request, ProtoError> {
    let layer = v
        .get("layer")
        .ok_or_else(|| ProtoError::new("bad-request", "missing `layer`", Some(id)))?;
    let layer = LayerDesc {
        in_c: req_usize(layer, "in_c", Some(id))?,
        in_h: req_usize(layer, "in_h", Some(id))?,
        in_w: req_usize(layer, "in_w", Some(id))?,
        out_c: req_usize(layer, "out_c", Some(id))?,
        out_h: req_usize(layer, "out_h", Some(id))?,
        out_w: req_usize(layer, "out_w", Some(id))?,
        kernel: req_usize(layer, "kernel", Some(id))?,
        stride: req_usize(layer, "stride", Some(id))?,
        groups: req_usize(layer, "groups", Some(id))?,
        is_fc: req_bool(layer, "is_fc", Some(id))?,
    };
    let pu = v
        .get("pu")
        .ok_or_else(|| ProtoError::new("bad-request", "missing `pu`", Some(id)))?;
    let mut cfg = PuConfig::new(req_usize(pu, "rows", Some(id))?, req_usize(pu, "cols", Some(id))?);
    if pu.get("act_buf").is_some() || pu.get("wgt_buf").is_some() {
        cfg = cfg.with_buffers(
            req_u64(pu, "act_buf", Some(id))?,
            req_u64(pu, "wgt_buf", Some(id))?,
        );
    }
    if let Some(f) = pu.get("freq_mhz") {
        let mhz = f.as_f64().ok_or_else(|| {
            ProtoError::new("bad-request", "`freq_mhz` must be a number", Some(id))
        })?;
        cfg = cfg.with_freq_mhz(mhz);
    }
    let dataflow = match req_str(v, "dataflow", Some(id))? {
        "WS" => DataflowSel::Fixed(Dataflow::WeightStationary),
        "OS" => DataflowSel::Fixed(Dataflow::OutputStationary),
        "best" => DataflowSel::Best,
        other => {
            return Err(ProtoError::new(
                "bad-request",
                format!("dataflow must be WS|OS|best, got {other:?}"),
                Some(id),
            ))
        }
    };
    Ok(Request::EvalPu {
        layer,
        pu: cfg,
        dataflow,
    })
}

/// Appends the server-minted trace id to a response's fields (0 = the
/// line never got a trace; the key is omitted).
fn push_trace(fields: &mut Vec<(&str, Json)>, trace: u64) {
    if trace != 0 {
        fields.push(("trace", Json::from(trace)));
    }
}

/// Renders a `kind:"done"` response line.
pub fn done_line(id: u64, result: Json, trace: u64) -> String {
    let mut fields = vec![
        ("id", Json::from(id)),
        ("kind", Json::from("done")),
        ("result", result),
    ];
    push_trace(&mut fields, trace);
    obj(fields).render()
}

/// Renders a `kind:"partial"` response line (typed early stop).
pub fn partial_line(
    id: u64,
    reason: &str,
    completed_gens: u64,
    planned_gens: u64,
    result: Option<Json>,
    trace: u64,
) -> String {
    let mut fields = vec![
        ("id", Json::from(id)),
        ("kind", Json::from("partial")),
        ("reason", Json::from(reason)),
        ("completed_gens", Json::from(completed_gens)),
        ("planned_gens", Json::from(planned_gens)),
    ];
    if let Some(r) = result {
        fields.push(("result", r));
    }
    push_trace(&mut fields, trace);
    obj(fields).render()
}

/// Renders a `kind:"progress"` event line.
pub fn progress_line(id: u64, state: &str, trace: u64) -> String {
    let mut fields = vec![
        ("id", Json::from(id)),
        ("kind", Json::from("progress")),
        ("state", Json::from(state)),
    ];
    push_trace(&mut fields, trace);
    obj(fields).render()
}

/// Renders a `kind:"error"` response line.
pub fn error_line(id: Option<u64>, code: &str, message: &str, trace: u64) -> String {
    let mut fields = vec![
        ("id", id.map_or(Json::Null, Json::from)),
        ("kind", Json::from("error")),
        ("code", Json::from(code)),
        ("message", Json::from(message)),
    ];
    push_trace(&mut fields, trace);
    obj(fields).render()
}

impl From<&ProtoError> for String {
    fn from(e: &ProtoError) -> String {
        error_line(e.id, e.code, &e.message, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_eval_pu_with_defaults_and_options() {
        let line = r#"{"v":1,"id":7,"req":"eval_pu","dataflow":"best",
            "layer":{"in_c":64,"in_h":28,"in_w":28,"out_c":128,"out_h":28,"out_w":28,
                     "kernel":3,"stride":1,"groups":1,"is_fc":false},
            "pu":{"rows":16,"cols":16,"act_buf":4096,"wgt_buf":4096,"freq_mhz":400.0},
            "priority":5,"deadline_ms":250}"#
            .replace('\n', " ");
        let env = parse_request(&line).expect("parses");
        assert_eq!(env.id, 7);
        assert_eq!(env.priority, 5);
        assert_eq!(env.deadline_ms, Some(250));
        match env.request {
            Request::EvalPu { layer, pu, dataflow } => {
                assert_eq!(layer.in_c, 64);
                assert!(!layer.is_fc);
                assert_eq!((pu.rows, pu.cols), (16, 16));
                assert_eq!((pu.act_buf_bytes, pu.wgt_buf_bytes), (4096, 4096));
                assert_eq!(dataflow, DataflowSel::Best);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_control_requests() {
        let st = parse_request(r#"{"v":1,"id":1,"req":"status"}"#).expect("status");
        assert_eq!(st.request, Request::Status);
        let ca = parse_request(r#"{"v":1,"id":2,"req":"cancel","target":9}"#).expect("cancel");
        assert_eq!(ca.request, Request::Cancel { target: 9 });
        let sh = parse_request(r#"{"v":1,"id":3,"req":"shutdown"}"#).expect("shutdown");
        assert_eq!(sh.request, Request::Shutdown);
        let cd = parse_request(
            r#"{"v":1,"id":4,"req":"codesign","model":"alexnet","budget":"eyeriss","method":"mip-heuristic"}"#,
        )
        .expect("codesign");
        match cd.request {
            Request::Codesign { hw_iters, seg_iters, seed, .. } => {
                assert_eq!((hw_iters, seg_iters, seed), (24, 32, 3));
            }
            other => panic!("wrong request: {other:?}"),
        }
        let fl = parse_request(r#"{"v":1,"id":11,"req":"flush"}"#)
            .expect_err("flush is not a request kind");
        assert_eq!((fl.code, fl.id), ("unknown-request", Some(11)));
        let neg = parse_request(r#"{"v":1,"id":5,"req":"status","priority":-3}"#).expect("neg prio");
        assert_eq!(neg.priority, -3);
        let me = parse_request(r#"{"v":1,"id":6,"req":"metrics"}"#).expect("metrics");
        assert_eq!(me.request, Request::Metrics { flight: false });
        let mf = parse_request(r#"{"v":1,"id":7,"req":"metrics","flight":true}"#).expect("metrics+flight");
        assert_eq!(mf.request, Request::Metrics { flight: true });
        let bad = parse_request(r#"{"v":1,"id":8,"req":"metrics","flight":1}"#).expect_err("flight must be bool");
        assert_eq!(bad.code, "bad-request");
    }

    #[test]
    fn rejects_bad_envelopes_typed() {
        let cases = [
            ("not json", "bad-json"),
            ("[1,2]", "bad-request"),
            (r#"{"id":1,"req":"status"}"#, "bad-request"),
            (r#"{"v":2,"id":1,"req":"status"}"#, "bad-version"),
            (r#"{"v":1,"req":"status"}"#, "bad-request"),
            (r#"{"v":1,"id":1,"req":"frobnicate"}"#, "unknown-request"),
            (r#"{"v":1,"id":1,"req":"cancel"}"#, "bad-request"),
            (r#"{"v":1,"id":1,"req":"status","priority":1.5}"#, "bad-request"),
            (r#"{"v":1,"id":1,"req":"status","deadline_ms":-1}"#, "bad-request"),
        ];
        for (line, code) in cases {
            let e = parse_request(line).expect_err(line);
            assert_eq!(e.code, code, "{line}");
        }
        // Errors echo the id when the envelope got that far.
        let e = parse_request(r#"{"v":1,"id":6,"req":"cancel"}"#).expect_err("no target");
        assert_eq!(e.id, Some(6));
    }

    #[test]
    fn response_lines_are_valid_json() {
        for line in [
            done_line(1, obj(vec![("x", Json::from(1u64))]), 0),
            partial_line(2, "deadline", 3, 9, None, 0),
            partial_line(2, "cancelled", 3, 9, Some(Json::Null), 11),
            progress_line(4, "running", 12),
            error_line(None, "bad-json", "oops", 0),
            error_line(Some(5), "overloaded", "queue full", 13),
        ] {
            let v = crate::json::parse(&line).expect(&line);
            assert!(v.get("kind").is_some(), "{line}");
        }
    }

    #[test]
    fn trace_id_echoes_when_minted_and_is_absent_otherwise() {
        let with = done_line(1, Json::Null, 42);
        let v = crate::json::parse(&with).expect("json");
        assert_eq!(v.get("trace").and_then(Json::as_u64), Some(42));
        let without = done_line(1, Json::Null, 0);
        let v = crate::json::parse(&without).expect("json");
        assert!(v.get("trace").is_none(), "{without}");
        // Trace echo never perturbs key order: the line re-renders to
        // itself (BTreeMap-backed objects are canonically sorted).
        assert_eq!(crate::json::parse(&with).expect("json").render(), with);
    }
}
