//! Per-layer replay: each layer's public functions called alone at the
//! workload's exact shapes (model dimension, worker count, quorum sizes),
//! every call inside a benchmark span.

use crate::live::Workload;
use crate::spans::Spans;
use crate::stats::median;
use bytes::Bytes;
use garfield_aggregation::{build_gar, Engine};
use garfield_core::{CoreError, CoreResult, Deployment, ExperimentConfig};
use garfield_net::{MsgKind, NodeId, Router, RouterTransport, Transport, WireMessage};
use garfield_runtime::NodeLayout;
use garfield_tensor::{squared_l2_distance_slices, GradientView, Tensor};
use garfield_transport::{ClusterSpec, TcpOptions, TcpTransport};
use std::hint::black_box;
use std::time::Duration;

/// Timed calls per layer function; the reported figure is their median.
const CALLS: usize = 31;
/// Cheap calls (kernels, codecs, transports) are sampled more often.
const CHEAP_CALLS: usize = 101;
/// Rounds of own honest gradients a live Byzantine worker keeps as its
/// moment estimate (the runtime's attack history depth).
const ATTACK_HISTORY: usize = 4;
/// Frames per streamed TCP burst; below the outbound queue bound, so a
/// healthy burst drops nothing.
const STREAM_FRAMES: usize = 32;
/// How long a replay receive may wait before the layer counts as failed.
const RECV_TIMEOUT: Duration = Duration::from_secs(5);

/// Medians of the replayed layer calls.
pub struct LayerTimes {
    pub grad_ms: f64,
    pub update_ms: f64,
    pub corrupt_ms: f64,
    pub gar_ms: f64,
    pub gar_seq_ms: f64,
    pub model_gar_ms: f64,
    pub sq_l2_gbps: f64,
    pub encode_ms: f64,
    pub decode_ms: f64,
    pub router_us: f64,
    pub rtt_us: f64,
    pub mb_s: f64,
    /// On-wire bytes a TCP frame adds to its payload.
    pub frame_overhead_bytes: f64,
    /// Frames the replay's TCP endpoints dropped.
    pub dropped: u64,
    pub deployment_s: f64,
    pub bind_s: f64,
}

/// Times every layer call of `workload`. Output checks (codec round trip,
/// engine equivalence, echo integrity) are returned as problems.
pub fn replay(
    workload: &Workload,
    config: &ExperimentConfig,
    spans: &mut Spans,
    parent: usize,
    problems: &mut Vec<String>,
) -> CoreResult<LayerTimes> {
    // core: building the deployment. The last one built is replayed below.
    let (deployment_s, deployment) = sample(spans, parent, "core.Deployment::new", 3, |_| {
        Deployment::new(config.clone())
    })?;
    let mut parts = deployment.into_live_parts();
    let params = parts.servers[0].honest().parameters();

    // ml: worker forward/backward at the workload's batch size.
    let worker = &mut parts.workers[0];
    let (grad_s, _) = sample(spans, parent, "ml.honest_compute", CALLS, |i| {
        worker.honest_compute(&params, i as usize)
    })?;

    // The round's gradient inputs: honest vectors from the honest workers,
    // attacked ones from the Byzantine workers (whose history is their own
    // previous honest gradients, as in the live runtime).
    let mut gradients = Vec::with_capacity(config.nw);
    let mut history = Vec::new();
    for worker in parts.workers.iter_mut() {
        let (_, honest) = worker.honest_compute(&params, ATTACK_HISTORY)?;
        if worker.is_byzantine() {
            if history.is_empty() {
                for round in 0..ATTACK_HISTORY {
                    history.push(worker.honest_compute(&params, round)?.1);
                }
            }
            gradients.push(worker.sent_gradient(honest, &history));
        } else {
            gradients.push(honest);
        }
    }

    // attacks: the corruption a Byzantine node applies to what it sends —
    // a worker's gradient, or (on workloads without Byzantine workers) a
    // Byzantine replica's served model.
    let byzantine_worker = parts.workers.iter().rposition(|w| w.is_byzantine());
    let byzantine_server = parts.servers.iter().rposition(|s| s.is_byzantine());
    let (corrupt_s, _) = match (byzantine_worker, byzantine_server) {
        (Some(j), _) => {
            let (worker, honest) = (&mut parts.workers[j], &gradients[0]);
            sample(spans, parent, "attacks.corrupt", CALLS, |_| {
                Ok(worker.sent_gradient(honest.clone(), &history))
            })?
        }
        (None, Some(s)) => {
            let server = &mut parts.servers[s];
            sample(spans, parent, "attacks.corrupt", CALLS, |_| {
                Ok(server.served_model(&[]))
            })?
        }
        (None, None) => {
            return Err(CoreError::InvalidConfig(format!(
                "workload {} has no Byzantine node to time",
                workload.name
            )))
        }
    };

    // aggregation: the gradient GAR under the machine-sized and the
    // sequential engine, which must agree bit for bit.
    let gar = build_gar(&config.gradient_gar, config.nw, config.fw)?;
    let views: Vec<GradientView<'_>> = gradients.iter().map(GradientView::from).collect();
    let (auto, sequential) = (Engine::auto(), Engine::sequential());
    let (gar_s, aggregated) = sample(spans, parent, "aggregation.gar_auto", CALLS, |_| {
        Ok(gar.aggregate_views(&views, &auto)?)
    })?;
    let (gar_seq_s, reference) =
        sample(spans, parent, "aggregation.gar_sequential", CALLS, |_| {
            Ok(gar.aggregate_views(&views, &sequential)?)
        })?;
    if !bit_equal(aggregated.data(), reference.data()) {
        problems.push("gradient GAR: Engine::auto and Engine::sequential disagree".into());
    }
    if aggregated.data().iter().any(|v| !v.is_finite()) {
        problems.push("gradient GAR returned a non-finite value".into());
    }

    // ml: the server's SGD step with the aggregated gradient.
    let server = parts.servers[0].honest_mut();
    let (update_s, _) = sample(spans, parent, "ml.update_model", CALLS, |_| {
        server.update_model(&aggregated)
    })?;

    // aggregation: the MSMW model merge — the fastest model-quorum peer
    // models plus the replica's own, one of them served by a Byzantine peer
    // (the single-server workloads time the same merge at their dimension).
    let mut models: Vec<Tensor> = parts.servers[..config.model_quorum()]
        .iter()
        .map(|s| s.honest().parameters())
        .collect();
    models.push(match byzantine_server {
        Some(s) => parts.servers[s].served_model(&[]),
        None => Tensor::from_slice(&params.data().iter().map(|v| -v).collect::<Vec<_>>()),
    });
    let model_gar = build_gar(&config.model_gar, models.len(), config.fps)?;
    let model_views: Vec<GradientView<'_>> = models.iter().map(GradientView::from).collect();
    let (model_gar_s, _) = sample(spans, parent, "aggregation.model_gar", CALLS, |_| {
        Ok(model_gar.aggregate_views(&model_views, &auto)?)
    })?;

    // tensor: the pairwise-distance kernel Multi-Krum scores with.
    let (a, b) = (gradients[0].data(), gradients[1].data());
    let (sq_l2_s, _) = sample(
        spans,
        parent,
        "tensor.squared_l2_distance_slices",
        CHEAP_CALLS,
        |_| {
            Ok(black_box(squared_l2_distance_slices(
                black_box(a),
                black_box(b),
            )))
        },
    )?;

    // net: the wire codec on one gradient reply.
    let message = WireMessage::new(MsgKind::GradientReply, 7, 0.5, gradients[0].data().to_vec());
    let (encode_s, encoded) = sample(
        spans,
        parent,
        "net.WireMessage::encode",
        CHEAP_CALLS,
        |_| Ok(message.encode()),
    )?;
    let mut decoded = Vec::new();
    let (decode_s, _) = sample(
        spans,
        parent,
        "net.WireMessage::decode_into",
        CHEAP_CALLS,
        |_| Ok(WireMessage::decode_into(&encoded, &mut decoded)?),
    )?;
    if !bit_equal(&decoded, gradients[0].data()) {
        problems.push("wire codec: decode(encode(g)) != g".into());
    }

    // net: one message through the in-process router, send to receive.
    let router = Router::new();
    let from = RouterTransport::connect(&router, NodeId(0))?;
    let to = RouterTransport::connect(&router, NodeId(1))?;
    let (router_s, delivered) = sample(spans, parent, "net.RouterTransport", CHEAP_CALLS, |i| {
        from.send(NodeId(1), i, encoded.clone())?;
        Ok(to.recv_timeout(RECV_TIMEOUT)?.payload)
    })?;
    if delivered != encoded {
        problems.push("router delivered a different payload".into());
    }

    let tcp = replay_tcp(&encoded, spans, parent, problems)?;

    // transport: binding every endpoint of the workload's layout (ports
    // are reserved up front, outside the samples).
    let layout = NodeLayout::of(workload.system, config);
    let specs = (0..3)
        .map(|_| ClusterSpec::localhost(layout.len()))
        .collect::<Result<Vec<_>, _>>()?;
    let (bind_s, _) = sample(
        spans,
        parent,
        "transport.TcpTransport::bind",
        specs.len(),
        |i| {
            let spec = &specs[i as usize];
            spec.ids()
                .into_iter()
                .map(|id| TcpTransport::bind(spec, id, TcpOptions::default()))
                .collect::<Result<Vec<_>, _>>()
                .map_err(CoreError::from)
        },
    )?;

    Ok(LayerTimes {
        grad_ms: 1e3 * grad_s,
        update_ms: 1e3 * update_s,
        corrupt_ms: 1e3 * corrupt_s,
        gar_ms: 1e3 * gar_s,
        gar_seq_ms: 1e3 * gar_seq_s,
        model_gar_ms: 1e3 * model_gar_s,
        sq_l2_gbps: (2 * a.len() * 4) as f64 / sq_l2_s / 1e9,
        encode_ms: 1e3 * encode_s,
        decode_ms: 1e3 * decode_s,
        router_us: 1e6 * router_s,
        rtt_us: tcp.rtt_us,
        mb_s: tcp.mb_s,
        frame_overhead_bytes: tcp.frame_overhead_bytes,
        dropped: tcp.dropped,
        deployment_s,
        bind_s,
    })
}

/// Calls `call` `calls` times, each call inside its own child span of a new
/// span `name`, and returns the median call time in seconds with the last
/// call's result.
fn sample<T>(
    spans: &mut Spans,
    parent: usize,
    name: &'static str,
    calls: usize,
    mut call: impl FnMut(u64) -> CoreResult<T>,
) -> CoreResult<(f64, T)> {
    let layer = spans.open(name, Some(parent), None);
    let mut samples = Vec::with_capacity(calls);
    let mut last = None;
    for i in 0..calls as u64 {
        let (out, secs) = spans.time("call", Some(layer), Some(i), || call(i));
        last = Some(out?);
        samples.push(secs);
    }
    spans.close(layer);
    Ok((median(&samples), last.expect("at least one call")))
}

struct TcpTimes {
    rtt_us: f64,
    mb_s: f64,
    frame_overhead_bytes: f64,
    dropped: u64,
}

/// Two TCP endpoints on localhost: the round trip of one frame (sent,
/// received and echoed back), and the throughput of a streamed burst.
fn replay_tcp(
    frame: &Bytes,
    spans: &mut Spans,
    parent: usize,
    problems: &mut Vec<String>,
) -> CoreResult<TcpTimes> {
    let spec = ClusterSpec::localhost(2)?;
    let (a, b) = (NodeId(0), NodeId(1));
    let left = TcpTransport::bind(&spec, a, TcpOptions::default())?;
    let right = TcpTransport::bind(&spec, b, TcpOptions::default())?;
    let round_trip = |tag: u64| -> CoreResult<Bytes> {
        left.send(b, tag, frame.clone())?;
        let there = right.recv_timeout(RECV_TIMEOUT)?;
        right.send(a, tag, there.payload)?;
        Ok(left.recv_timeout(RECV_TIMEOUT)?.payload)
    };
    round_trip(0)?; // both directions dial here, outside the samples

    let (rtt_s, echo) = sample(
        spans,
        parent,
        "transport.TcpTransport.rtt",
        CHEAP_CALLS,
        round_trip,
    )?;
    if echo != *frame {
        problems.push("TCP echo returned a different payload".into());
    }
    let (stream_s, _) = sample(spans, parent, "transport.TcpTransport.stream", 7, |_| {
        for k in 0..STREAM_FRAMES {
            left.send(b, k as u64, frame.clone())?;
        }
        for _ in 0..STREAM_FRAMES {
            right.recv_timeout(RECV_TIMEOUT)?;
        }
        Ok(())
    })?;

    left.flush(RECV_TIMEOUT);
    let counters = left.peer_counters();
    let toward = counters
        .iter()
        .find(|c| c.peer == b)
        .ok_or_else(|| CoreError::Net("TCP endpoint kept no counters toward its peer".into()))?;
    let frame_overhead_bytes =
        toward.bytes_sent as f64 / toward.messages_sent.max(1) as f64 - frame.len() as f64;
    let dropped = counters.iter().map(|c| c.messages_dropped).sum::<u64>()
        + right
            .peer_counters()
            .iter()
            .map(|c| c.messages_dropped)
            .sum::<u64>();
    Ok(TcpTimes {
        rtt_us: 1e6 * rtt_s,
        mb_s: (STREAM_FRAMES * frame.len()) as f64 / stream_s / 1e6,
        frame_overhead_bytes,
        dropped,
    })
}

fn bit_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
