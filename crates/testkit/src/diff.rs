//! Differential test harness: run the same question through two paths
//! that must agree, and if they do not, report the *first diverging
//! field* by JSON path (`$.routes[3].as_path[1]`) instead of dumping two
//! multi-kilobyte documents side by side.
//!
//! The comparisons the workspace cares about:
//!
//! - sequential vs parallel refinement ([`refine_differential`]),
//! - a live N-shard server vs a fresh 1-shard one-shot dispatch
//!   ([`sharded_vs_oneshot`]),
//! - a JSON-round-tripped model vs the in-memory original
//!   ([`roundtrip_differential`]),
//! - any two [`ShardedState`]s answering the same request mix
//!   ([`states_differential`] — N shards against one is the sharding
//!   differential suite).
//!
//! Everything reduces to [`first_divergence`] over two
//! [`serde_json::Value`] documents.

use quasar_core::model::AsRoutingModel;
use quasar_core::observed::Dataset;
use quasar_core::refine::{refine, RefineConfig};
use quasar_serve::server::{serve, ServeConfig};
use quasar_serve::shard::ShardedState;
use serde_json::Value;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// The first point where two executions disagreed.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Which comparison was running (human label, e.g. `"refine threads=1
    /// vs threads=4"`).
    pub context: String,
    /// JSON path to the first diverging field, `$` rooted.
    pub path: String,
    /// Rendering of the left side at `path`.
    pub left: String,
    /// Rendering of the right side at `path`.
    pub right: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: first divergence at {}\n  left:  {}\n  right: {}",
            self.context, self.path, self.left, self.right
        )
    }
}

/// Compact single-line rendering of a value for messages.
fn brief(v: &Value) -> String {
    let full = match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Number(n) => n.to_string(),
        Value::String(s) => format!("{s:?}"),
        Value::Array(items) => format!("<array of {}>", items.len()),
        Value::Object(entries) => format!("<object with {} fields>", entries.len()),
    };
    if full.len() > 120 {
        format!("{}…", &full[..120])
    } else {
        full
    }
}

/// Walks two documents in lockstep and returns the first place they
/// differ, or `None` if they are identical. Object fields are compared
/// in serialization order (the vendored serde emits deterministic,
/// sorted output, so order differences are real differences).
pub fn first_divergence(context: &str, left: &Value, right: &Value) -> Option<Divergence> {
    fn walk(path: &mut String, l: &Value, r: &Value) -> Option<(String, String, String)> {
        match (l, r) {
            (Value::Array(ls), Value::Array(rs)) => {
                for (i, (le, re)) in ls.iter().zip(rs.iter()).enumerate() {
                    let len = path.len();
                    path.push_str(&format!("[{i}]"));
                    if let Some(d) = walk(path, le, re) {
                        return Some(d);
                    }
                    path.truncate(len);
                }
                if ls.len() != rs.len() {
                    return Some((
                        format!("{path}.length"),
                        ls.len().to_string(),
                        rs.len().to_string(),
                    ));
                }
                None
            }
            (Value::Object(lm), Value::Object(rm)) => {
                for (i, ((lk, lv), (rk, rv))) in lm.iter().zip(rm.iter()).enumerate() {
                    if lk != rk {
                        return Some((format!("{path}.<key #{i}>"), lk.clone(), rk.clone()));
                    }
                    let len = path.len();
                    path.push('.');
                    path.push_str(lk);
                    if let Some(d) = walk(path, lv, rv) {
                        return Some(d);
                    }
                    path.truncate(len);
                }
                if lm.len() != rm.len() {
                    return Some((
                        format!("{path}.<field count>"),
                        lm.len().to_string(),
                        rm.len().to_string(),
                    ));
                }
                None
            }
            _ if l == r => None,
            _ => Some((path.clone(), brief(l), brief(r))),
        }
    }
    let mut path = String::from("$");
    walk(&mut path, left, right).map(|(path, left, right)| Divergence {
        context: context.to_string(),
        path,
        left,
        right,
    })
}

/// Parses two JSON documents and reports their first divergence.
/// Unparseable input is itself reported as a divergence at `$` so the
/// caller always gets a location.
pub fn diff_json(context: &str, left: &str, right: &str) -> Option<Divergence> {
    if left == right {
        return None;
    }
    match (
        serde_json::from_str::<Value>(left),
        serde_json::from_str::<Value>(right),
    ) {
        (Ok(l), Ok(r)) => first_divergence(context, &l, &r).or_else(|| {
            // Semantically equal but textually different: a formatting
            // bug worth reporting at the root.
            Some(Divergence {
                context: context.to_string(),
                path: "$.<serialized form>".to_string(),
                left: left.to_string(),
                right: right.to_string(),
            })
        }),
        (l, r) => Some(Divergence {
            context: context.to_string(),
            path: "$.<parse>".to_string(),
            left: l.err().map_or("ok".to_string(), |e| e.to_string()),
            right: r.err().map_or("ok".to_string(), |e| e.to_string()),
        }),
    }
}

/// Trains a fresh model from `full`/`training` with the given thread
/// count and returns `(model_json, per_prefix_report)`.
fn train(full: &Dataset, training: &Dataset, threads: usize) -> Result<(String, String), String> {
    let cfg = RefineConfig {
        threads,
        ..RefineConfig::default()
    };
    let mut model = AsRoutingModel::initial(&full.as_graph(), &full.prefixes());
    let report = refine(&mut model, training, &cfg).map_err(|e| e.to_string())?;
    let stats: Vec<String> = report
        .prefixes
        .iter()
        .map(|p| {
            format!(
                r#"{{"prefix":"{}","iterations":{},"converged":{},"added":{}}}"#,
                p.prefix, p.iterations, p.converged, p.quasi_routers_added
            )
        })
        .collect();
    let report_json = format!("[{}]", stats.join(","));
    let model_json = model.to_json().map_err(|e| e.to_string())?;
    Ok((model_json, report_json))
}

/// Refines the same dataset sequentially and at each of `thread_counts`,
/// and demands byte-identical models *and* per-prefix reports.
pub fn refine_differential(
    full: &Dataset,
    training: &Dataset,
    thread_counts: &[usize],
) -> Result<(), Divergence> {
    let (base_model, base_report) = train(full, training, 1).map_err(root_err)?;
    for &threads in thread_counts {
        let context = format!("refine threads=1 vs threads={threads}");
        let (model, report) = train(full, training, threads).map_err(root_err)?;
        if let Some(d) = diff_json(&context, &base_model, &model) {
            return Err(d);
        }
        if let Some(d) = diff_json(&format!("{context} (report)"), &base_report, &report) {
            return Err(d);
        }
    }
    Ok(())
}

fn root_err(msg: String) -> Divergence {
    Divergence {
        context: "execution failed before comparison".to_string(),
        path: "$".to_string(),
        left: msg,
        right: String::new(),
    }
}

/// Sends each request line through both states' dispatch path and
/// demands byte-identical reply lines. Stops at the first divergence.
pub fn states_differential(
    context: &str,
    left: &ShardedState,
    right: &ShardedState,
    requests: &[String],
) -> Result<(), Divergence> {
    for req in requests {
        let l = reply_line(left, req);
        let r = reply_line(right, req);
        if let Some(d) = diff_json(&format!("{context} — request {req}"), &l, &r) {
            return Err(d);
        }
    }
    Ok(())
}

/// The exact reply line a server would write for `req` (without the
/// trailing newline).
pub fn reply_line(state: &ShardedState, req: &str) -> String {
    serde_json::to_string(&state.handle_line(req))
        .unwrap_or_else(|_| r#"{"type":"error","message":"serialization failed"}"#.to_string())
}

/// Serializes the model to JSON, loads it back, and demands that (a) the
/// round-tripped JSON is byte-identical and (b) the reloaded model
/// answers every request exactly like the original.
pub fn roundtrip_differential(
    model: &AsRoutingModel,
    requests: &[String],
) -> Result<(), Divergence> {
    let json1 = model.to_json().map_err(|e| root_err(e.to_string()))?;
    let reloaded = AsRoutingModel::from_json(&json1).map_err(|e| root_err(e.to_string()))?;
    let json2 = reloaded.to_json().map_err(|e| root_err(e.to_string()))?;
    if let Some(d) = diff_json("model JSON round-trip", &json1, &json2) {
        return Err(d);
    }
    let left = ShardedState::new(model.clone(), ServeConfig::default(), 1);
    let right = ShardedState::new(reloaded, ServeConfig::default(), 1);
    states_differential("round-tripped model vs in-memory", &left, &right, requests)
}

/// Runs a real `serve()` instance for `model` with `shards` shards, sends
/// every request over TCP (one connection each), and demands that each
/// reply is byte-identical to a fresh 1-shard one-shot dispatch of the
/// same request — i.e. the server's pooling, caching, sessions and
/// sharding never change an answer.
pub fn sharded_vs_oneshot(
    model: &AsRoutingModel,
    shards: usize,
    requests: &[String],
) -> Result<(), Divergence> {
    let state = Arc::new(ShardedState::new(
        model.clone(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        shards,
    ));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| root_err(e.to_string()))?;
    let addr = listener.local_addr().map_err(|e| root_err(e.to_string()))?;
    let server = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || serve(state, listener))
    };

    let oneshot = ShardedState::new(model.clone(), ServeConfig::default(), 1);
    let mut result = Ok(());
    for req in requests {
        let served = match ask(addr, req) {
            Ok(line) => line,
            Err(e) => {
                result = Err(root_err(format!("request over TCP failed: {e}")));
                break;
            }
        };
        let direct = reply_line(&oneshot, req);
        let context = format!("served({shards}-shard) vs one-shot — request {req}");
        if let Some(d) = diff_json(&context, &served, &direct) {
            result = Err(d);
            break;
        }
    }

    state.request_shutdown();
    let _ = server.join();
    result
}

/// One request/one reply over a fresh TCP connection.
pub fn ask(addr: SocketAddr, request: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(request.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    Ok(line.trim_end_matches('\n').to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_documents_have_no_divergence() {
        let doc = r#"{"a":[1,2,{"b":"x"}],"c":null}"#;
        assert_eq!(diff_json("t", doc, doc), None);
    }

    #[test]
    fn scalar_divergence_reports_the_path() {
        let l = r#"{"routes":[{"as_path":[1,2,3]},{"as_path":[1,4,3]}]}"#;
        let r = r#"{"routes":[{"as_path":[1,2,3]},{"as_path":[1,9,3]}]}"#;
        let d = diff_json("t", l, r).expect("must diverge");
        assert_eq!(d.path, "$.routes[1].as_path[1]");
        assert_eq!(d.left, "4");
        assert_eq!(d.right, "9");
    }

    #[test]
    fn length_mismatch_points_at_the_shorter_prefix_end() {
        let d = diff_json("t", r#"{"xs":[1,2]}"#, r#"{"xs":[1,2,3]}"#).expect("must diverge");
        assert_eq!(d.path, "$.xs.length");
        assert_eq!((d.left.as_str(), d.right.as_str()), ("2", "3"));
    }

    #[test]
    fn key_mismatch_is_reported_before_values() {
        let d = diff_json("t", r#"{"a":1,"b":2}"#, r#"{"a":1,"c":2}"#).expect("must diverge");
        assert_eq!(d.path, "$.<key #1>");
        assert_eq!((d.left.as_str(), d.right.as_str()), ("b", "c"));
    }

    #[test]
    fn unparseable_input_is_a_divergence_not_a_panic() {
        let d = diff_json("t", "{", r#"{"a":1}"#).expect("must diverge");
        assert_eq!(d.path, "$.<parse>");
        assert_eq!(d.right, "ok");
    }

    #[test]
    fn nested_divergence_inside_earlier_elements_wins() {
        // Element 0 diverges AND the lengths differ: element 0 must win.
        let d = diff_json("t", r#"[{"x":1}]"#, r#"[{"x":2},{"x":3}]"#).expect("must diverge");
        assert_eq!(d.path, "$[0].x");
    }
}
