//! The worker and server actors: one actor per node, real messages only.
//!
//! Workers are passive repliers (the paper's `Worker` object): they wait for
//! a [`MsgKind::GradientRequest`] carrying the requesting server's model,
//! compute a real gradient on their own shard and send it back. Server
//! replicas drive the training loop: broadcast the model, unblock on the
//! fastest `q` gradient replies, robustly aggregate, update — and, in MSMW,
//! pull peer models the same way. All payloads travel as
//! [`WireMessage`]-encoded bytes through a
//! [`Transport`](garfield_net::Transport) — the in-process router when the
//! [`LiveExecutor`](crate::LiveExecutor) spawns one thread per node, a TCP
//! socket mesh when `garfield-node` runs each actor in its own OS process.

use crate::fault::Fault;
use crate::node::ServerNode;
use garfield_aggregation::{
    build_gar, Engine, Gar, PeerSuspicion, SelectionOutcome, SuspicionLedger,
};
use garfield_attacks::Attack;
use garfield_core::{
    AccuracyPoint, ByzantineServer, ByzantineWorker, Checkpoint, CheckpointPolicy, CoreError,
    CoreResult, ExperimentConfig, IterationTiming, NodeTelemetry, ShardSpec, SystemKind,
    TrainingTrace,
};
use garfield_ml::Batch;
use garfield_net::{MsgKind, NodeId, PayloadPool, Transport, WireHeader, WireMessage};
use garfield_obs::flight::{self, EventKind};
use garfield_tensor::{GradientView, Tensor, TensorRng};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Cached `garfield-obs` handles for the actor hot loop: one registry lookup
/// per process, relaxed-atomic updates per round, a load and a branch when
/// observability is disabled. The four phase series are the paper's cost
/// breakdown (Figs. 7/16) measured live instead of post-hoc.
struct ActorObs {
    phase_compute: garfield_obs::Histogram,
    phase_communication: garfield_obs::Histogram,
    phase_aggregation: garfield_obs::Histogram,
    phase_checkpoint: garfield_obs::Histogram,
    round_seconds: garfield_obs::Histogram,
    rounds_total: garfield_obs::Counter,
    pull_retries: garfield_obs::Counter,
    checkpoints_written: garfield_obs::Counter,
    state_chunks_served: garfield_obs::Counter,
}

fn actor_obs() -> &'static ActorObs {
    static OBS: std::sync::OnceLock<ActorObs> = std::sync::OnceLock::new();
    let phase = |name| {
        garfield_obs::metrics::histogram(
            "garfield_phase_seconds",
            "Per-round phase latency (the paper's compute/communication/\
             aggregation breakdown, plus checkpointing), by phase.",
            &[("phase", name)],
        )
    };
    OBS.get_or_init(|| ActorObs {
        phase_compute: phase("compute"),
        phase_communication: phase("communication"),
        phase_aggregation: phase("aggregation"),
        phase_checkpoint: phase("checkpoint"),
        round_seconds: garfield_obs::metrics::histogram(
            "garfield_round_seconds",
            "End-to-end server round latency.",
            &[],
        ),
        rounds_total: garfield_obs::metrics::counter(
            "garfield_rounds_total",
            "Training rounds completed by this endpoint.",
            &[],
        ),
        pull_retries: garfield_obs::metrics::counter(
            "garfield_pull_retries_total",
            "Pull requests re-sent to silent peers.",
            &[],
        ),
        checkpoints_written: garfield_obs::metrics::counter(
            "garfield_checkpoints_written_total",
            "Checkpoints persisted to disk.",
            &[],
        ),
        state_chunks_served: garfield_obs::metrics::counter(
            "garfield_state_chunks_served_total",
            "State-transfer chunks served to recovering peers.",
            &[],
        ),
    })
}

/// Encodes `msg`, stamps the wire header's trace fields (origin node,
/// per-sender sequence number, send timestamp) and freezes the buffer for
/// sending. Broadcasts clone the returned bytes, so every recipient of one
/// logical message observes the same `(origin, seq)` — `expfig trace` can
/// attribute all of a broadcast's per-peer one-way delays to a single send.
/// Retried requests reuse the original stamp: the inflated delay a late
/// replier then reports *is* the silence it rode out.
fn encode_stamped(msg: &WireMessage, origin: u32, seq: &mut u64) -> bytes::Bytes {
    *seq += 1;
    let mut buf = msg.encode_vec();
    garfield_net::stamp_trace(&mut buf, origin, *seq, garfield_net::unix_micros());
    bytes::Bytes::from(buf)
}

/// How many of its own recent honest gradients a Byzantine worker keeps as
/// the moment-estimation view for collusion attacks (little-is-enough,
/// fall-of-empires). The live substrate is non-omniscient — no node ever sees
/// its peers' private gradients — so the adversary falls back to the
/// local-estimate variant: its own trajectory stands in for the round's
/// honest population. A short window keeps the estimate close to the current
/// round while still giving the attacks a usable spread.
const ATTACK_HISTORY_ROUNDS: usize = 4;

/// One in-flight sharded round on a worker: the round number plus one slot
/// per shard, each holding the requesting shard server, its coordinate
/// offset and its parameter slice once that shard's request has landed.
type PendingShardRound = (u64, Vec<Option<(NodeId, usize, Vec<f32>)>>);

/// Everything a worker actor needs.
pub(crate) struct WorkerActor {
    pub transport: Box<dyn Transport>,
    pub worker: ByzantineWorker,
    pub fault: Option<Fault>,
    pub fault_attack: Option<Box<dyn Attack>>,
    pub fault_rng: TensorRng,
    pub idle_timeout: Duration,
    pub telemetry: NodeTelemetry,
    /// Whether a `RestartAt` fault already fired (one restart per run).
    pub restarted: bool,
    /// Per-sender wire sequence number (trace header, satellite of the wire
    /// format's causal-tracing fields).
    pub seq: u64,
    /// Bounded FIFO of this worker's own recent honest gradients — the
    /// non-omniscient adversary's estimation view (stays empty on honest
    /// workers). See [`ATTACK_HISTORY_ROUNDS`].
    pub attack_history: Vec<Tensor>,
    /// Number of parameter shards the server side is split into (1 means
    /// unsharded: every request carries the full model).
    pub shards: usize,
    /// Full model dimension — the length sharded slices must tile exactly.
    pub dimension: usize,
    /// Sharded rounds in flight: `(round, per-shard slot)` where a slot holds
    /// the requesting shard server, its coordinate offset and its slice
    /// values. The gradient is computed once, when the last slice of a round
    /// lands and the full parameter vector can be assembled.
    pub pending_slices: Vec<PendingShardRound>,
    /// Recently served sharded rounds: `(round, loss, sent gradient)`. A
    /// shard server's retry is answered by re-slicing this cache — never by
    /// recomputing, which would double-draw the attack RNG streams.
    pub sent_cache: Vec<(u64, f32, Tensor)>,
}

impl WorkerActor {
    /// The worker loop: serve gradient requests until shutdown, crash or
    /// prolonged silence. Returns the node's network counters.
    pub fn run(mut self) -> NodeTelemetry {
        let origin = self.transport.local_id().0;
        flight::set_thread_node(origin);
        // One payload buffer, reused for every decoded request: steady-state
        // serving allocates nothing on the receive path.
        let mut values: Vec<f32> = Vec::new();
        // Exits on shutdown/crash, or when the inbox stays silent past the
        // idle timeout (transport gone or run abandoned).
        while let Ok(envelope) = self.transport.recv_timeout(self.idle_timeout) {
            self.telemetry.record_recv(envelope.payload.len());
            let Ok(header) = WireMessage::peek(&envelope.payload) else {
                continue; // garbage on the wire: a correct node ignores it
            };
            match header.kind {
                MsgKind::Shutdown => break,
                MsgKind::GradientRequest => {
                    let iteration = header.round as usize;
                    if let Some(Fault::CrashAt { iteration: at }) = self.fault {
                        if iteration >= at {
                            // Go silent: peers must survive via quorums, not errors.
                            self.transport.crash();
                            break;
                        }
                    }
                    if let Some(Fault::RestartAt { crash, rejoin }) = self.fault {
                        if !self.restarted && iteration >= crash {
                            // Die for real, then come back as a fresh
                            // incarnation: envelopes addressed to the dead
                            // one (including this request) are dropped and
                            // counted by the transport.
                            self.transport.crash();
                            if self.transport.rejoin().is_err() {
                                break; // substrate rejoins by process respawn
                            }
                            self.restarted = true;
                            self.telemetry.resumes += 1;
                            continue;
                        }
                        if self.restarted && iteration < rejoin {
                            // Respawned but not yet rejoined: observationally
                            // dead — peers ride the silence out via quorums
                            // and re-requests.
                            continue;
                        }
                    }
                    if let Some(Fault::Delay { millis }) = self.fault {
                        std::thread::sleep(Duration::from_millis(millis));
                    }
                    if WireMessage::decode_into(&envelope.payload, &mut values).is_err() {
                        continue;
                    }
                    if self.shards > 1 && header.coord_len != 0 {
                        // Parameter-sharded request: a slice, not the model.
                        self.serve_shard_slice(envelope.from, &header, &values);
                        continue;
                    }
                    let params = Tensor::from_slice(&values);
                    let compute_span = garfield_obs::span_start();
                    let Ok((loss, honest)) = self.worker.honest_compute(&params, iteration) else {
                        continue; // malformed request (wrong dimension): drop it
                    };
                    garfield_obs::span_end(compute_span, &actor_obs().phase_compute);
                    let sent = self.outgoing_gradient(honest);
                    let reply = WireMessage::new(
                        MsgKind::GradientReply,
                        header.round,
                        loss,
                        sent.into_vec(),
                    );
                    self.reply(envelope.from, header.round, &reply);
                }
                _ => {} // server-to-server traffic never addresses a worker
            }
        }
        // Let asynchronous transports put the queued tail on the wire so
        // the per-peer snapshot below covers every message sent above.
        self.transport.flush(Duration::from_secs(5));
        self.telemetry.peers = self.transport.peer_counters();
        self.telemetry
    }

    /// Handles one shard server's `GradientRequest` carrying a parameter
    /// *slice* (wire header `coord_len != 0`). Slices are buffered until all
    /// `shards` of a round arrived; the full vector is then assembled, the
    /// gradient computed **once** and corrupted **once** — a Byzantine
    /// worker's RNG trajectory and attack history are bit-identical to the
    /// unsharded run — and sent back re-sliced, each shard server receiving
    /// exactly the coordinate range it asked for. Retries of already-served
    /// rounds re-slice the bounded sent-gradient cache instead of
    /// recomputing, which would double-draw the attack streams.
    fn serve_shard_slice(&mut self, from: NodeId, header: &WireHeader, slice: &[f32]) {
        let round = header.round;
        let shard = header.shard as usize;
        let offset = header.coord_offset as usize;
        if shard >= self.shards || offset + slice.len() > self.dimension {
            return; // mis-tagged request: a correct node ignores it
        }
        if let Some((_, loss, sent)) = self.sent_cache.iter().find(|(r, _, _)| *r == round) {
            let reply = WireMessage::new(
                MsgKind::GradientReply,
                round,
                *loss,
                sent.data()[offset..offset + slice.len()].to_vec(),
            )
            .with_shard(header.shard, header.coord_offset, header.coord_len);
            self.reply(from, round, &reply);
            return;
        }
        if !self.pending_slices.iter().any(|(r, _)| *r == round) {
            // Bound the in-flight rounds: a crashed shard server must not
            // leak assembly buffers for the rest of the run.
            if self.pending_slices.len() >= PENDING_SLICE_ROUNDS {
                if let Some(pos) =
                    (0..self.pending_slices.len()).min_by_key(|&i| self.pending_slices[i].0)
                {
                    self.pending_slices.remove(pos);
                }
            }
            self.pending_slices.push((round, vec![None; self.shards]));
        }
        let complete = {
            let slots = &mut self
                .pending_slices
                .iter_mut()
                .find(|(r, _)| *r == round)
                .expect("entry inserted above")
                .1;
            slots[shard] = Some((from, offset, slice.to_vec()));
            slots.iter().all(|s| s.is_some())
        };
        if !complete {
            return; // wait for the round's remaining slices
        }
        let pos = self
            .pending_slices
            .iter()
            .position(|(r, _)| *r == round)
            .expect("entry present");
        let (_, slots) = self.pending_slices.remove(pos);
        let mut params = vec![0.0f32; self.dimension];
        let mut covered = 0usize;
        for slot in &slots {
            let (_, off, vals) = slot.as_ref().expect("all slots filled");
            params[*off..*off + vals.len()].copy_from_slice(vals);
            covered += vals.len();
        }
        if covered != self.dimension {
            return; // gapped shard map: hostile or misconfigured, drop the round
        }
        let compute_span = garfield_obs::span_start();
        let Ok((loss, honest)) = self
            .worker
            .honest_compute(&Tensor::from_slice(&params), round as usize)
        else {
            return; // malformed request (wrong dimension): drop it
        };
        garfield_obs::span_end(compute_span, &actor_obs().phase_compute);
        let sent = self.outgoing_gradient(honest);
        for (k, slot) in slots.iter().enumerate() {
            let (requester, off, vals) = slot.as_ref().expect("all slots filled");
            let reply = WireMessage::new(
                MsgKind::GradientReply,
                round,
                loss,
                sent.data()[*off..*off + vals.len()].to_vec(),
            )
            .with_shard(k as u16, *off as u32, vals.len() as u32);
            self.reply(*requester, round, &reply);
        }
        self.sent_cache.push((round, loss, sent));
        if self.sent_cache.len() > SENT_CACHE_ROUNDS {
            self.sent_cache.remove(0);
        }
    }

    /// The gradient actually put on the wire: the honest vector on honest
    /// workers; on Byzantine ones the config attack's output, further
    /// corrupted by the fault-plan attack if present. Draws each attack RNG
    /// stream exactly once per call — callers must invoke this once per
    /// round, whatever the number of shards asking.
    fn outgoing_gradient(&mut self, honest: Tensor) -> Tensor {
        let byzantine = self.worker.is_byzantine() || self.fault_attack.is_some();
        if !byzantine {
            return honest;
        }
        let mut sent = self
            .worker
            .sent_gradient(honest.clone(), &self.attack_history);
        if let Some(attack) = &self.fault_attack {
            sent = attack.corrupt(&sent, &self.attack_history, &mut self.fault_rng);
        }
        // Remember the honest trajectory *after* corrupting: the history
        // holds previous rounds only, the current honest vector enters the
        // moment estimate via the attack's own `honest` argument.
        if self.attack_history.len() >= ATTACK_HISTORY_ROUNDS {
            self.attack_history.remove(0);
        }
        self.attack_history.push(honest);
        sent
    }

    /// Encodes, stamps and sends one reply, counting the bytes; send
    /// failures are tolerated (a crashed requester is what quorums absorb).
    fn reply(&mut self, to: NodeId, round: u64, msg: &WireMessage) {
        let origin = self.transport.local_id().0;
        let payload = encode_stamped(msg, origin, &mut self.seq);
        let bytes = payload.len();
        if self.transport.send(to, round, payload).is_ok() {
            self.telemetry.record_send(bytes);
        }
    }
}

/// How many sharded rounds a worker keeps in the slice-assembly buffer
/// before evicting the oldest (guards against shard servers that die
/// mid-round and leave a round forever incomplete).
const PENDING_SLICE_ROUNDS: usize = 8;

/// How many served sharded rounds stay re-sliceable for retries. Matches the
/// deepest plausible retry horizon: a shard server only retries its *current*
/// round, and shard servers drift by at most the rounds still in flight.
const SENT_CACHE_ROUNDS: usize = 4;

/// One collected reply: sender, aux scalar (loss), payload values.
type Reply = (NodeId, f32, Vec<f32>);

/// Everything a server-replica actor needs.
pub(crate) struct ServerActor {
    pub index: usize,
    pub transport: Box<dyn Transport>,
    pub server: ByzantineServer,
    pub system: SystemKind,
    pub config: ExperimentConfig,
    pub worker_ids: Vec<NodeId>,
    pub peer_ids: Vec<NodeId>,
    /// The parameter shard this replica owns, when the model is split across
    /// server shards (`None`: this replica holds the full vector). A shard
    /// server's model *is* the slice — requests it broadcasts and replies it
    /// accepts are tagged with the shard's coordinate range.
    pub shard: Option<ShardSpec>,
    /// The other shard servers of a sharded deployment (empty otherwise).
    /// They are not replicas — no model merging happens across shards — but
    /// they share the speculative fast-path latch via `SpeculationTrip`
    /// broadcasts (the cluster-wide sticky OR).
    pub shard_siblings: Vec<NodeId>,
    pub gradient_quorum: usize,
    pub round_deadline: Duration,
    pub fault: Option<Fault>,
    pub fault_attack: Option<Box<dyn Attack>>,
    pub fault_rng: TensorRng,
    /// Only the observer (server 0) evaluates accuracy.
    pub test_batch: Option<Batch>,
    /// Worker ids this replica winds down with a `Shutdown` when it exits
    /// (empty under the in-process executor, whose controller does it; the
    /// coordinating `garfield-node` server owns the duty in process-per-node
    /// deployments, where no controller exists).
    pub shutdown_targets: Vec<NodeId>,
    pub telemetry: NodeTelemetry,
    /// How long a pull waits before re-asking peers that have not replied.
    /// Requests are idempotent (a worker recomputes the same gradient for
    /// the same round), so the re-ask is what lets a peer that died and came
    /// back contribute to a round whose original request died with it.
    request_retry: Duration,
    /// Disk persistence policy; `None` disables checkpointing.
    checkpoint: Option<CheckpointPolicy>,
    /// First iteration to run (non-zero after a `--resume` restore).
    start_round: usize,
    /// Whether a `RestartAt` fault already fired (one restart per run).
    restarted: bool,
    /// The encoded `StateChunk` this replica serves to recovering peers:
    /// `(next round, wire bytes)`, refreshed at each iteration boundary.
    state_chunk: Option<(u64, bytes::Bytes)>,
    // Zero-copy aggregation machinery: decoded payloads live in pooled
    // buffers and the GAR reads them through borrowed views under the
    // machine-sized engine (bit-identical to the sequential engine, so
    // full-quorum reproducibility guarantees are unaffected).
    engine: Engine,
    pool: PayloadPool,
    /// The gradient GAR, owned by the actor (not the training loop) so that
    /// protocol handlers can latch its speculative fast path off when a
    /// sibling shard announces a `SpeculationTrip` mid-collect.
    gradient_gar: Box<dyn Gar>,
    /// Whether this replica already told its shard siblings that its
    /// speculative fast path tripped (one broadcast per run; receivers never
    /// re-broadcast, so the sticky OR converges without message storms).
    spec_trip_announced: bool,
    // Protocol state.
    round: usize,
    phase1_done: bool,
    /// The model this replica serves to peers, tagged by round: snapshotted
    /// once per round, right after the gradient update and before the model
    /// merge, so a request for round `r` always observes the same
    /// post-update state no matter when it arrives relative to this
    /// replica's own progress.
    served_snapshot: Option<(usize, Tensor)>,
    /// The snapshot before `served_snapshot`: a peer's request for round
    /// `r − 1` can reach this replica after it finished phase 1 of `r`.
    previous_snapshot: Option<(usize, Tensor)>,
    deferred_requests: Vec<(NodeId, u64)>,
    done_peers: HashSet<NodeId>,
    round_latencies: Vec<f64>,
    /// Per-sender wire sequence number (trace header fields).
    seq: u64,
    /// Byzantine forensics: per-peer suspicion accumulated from every GAR
    /// selection this replica performs (gradients and MSMW model merges).
    ledger: SuspicionLedger,
    /// Reused selection report — steady state allocates nothing.
    outcome: SelectionOutcome,
}

/// What a server actor hands back when it finishes.
pub(crate) struct ServerOutcome {
    pub trace: TrainingTrace,
    pub final_model: Tensor,
    pub telemetry: NodeTelemetry,
    pub round_latencies: Vec<f64>,
    pub resumed_from: Option<usize>,
    /// Final per-peer suspicion state, sorted by peer id.
    pub suspicion: Vec<PeerSuspicion>,
}

impl ServerActor {
    /// Builds the actor from its public description and a transport
    /// endpoint, restoring checkpointed state when the node carries a resume
    /// record.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the resume checkpoint
    /// belongs to a different experiment, and [`CoreError::Ml`] when its
    /// model does not fit this deployment.
    pub fn from_node(node: ServerNode, transport: Box<dyn Transport>) -> CoreResult<Self> {
        let telemetry = NodeTelemetry::new(transport.local_id().0, garfield_net::Role::Server);
        let fault_attack = match node.fault {
            Some(Fault::Byzantine { attack }) => Some(attack.build()),
            _ => None,
        };
        let (gar_kind, gar_f) = garfield_core::gradient_gar(node.system, &node.config);
        let gradient_gar = build_gar(&gar_kind, node.gradient_quorum, gar_f)?;
        let mut actor = ServerActor {
            index: node.index,
            transport,
            server: node.server,
            system: node.system,
            config: node.config,
            worker_ids: node.worker_ids,
            peer_ids: node.peer_ids,
            shard: node.shard,
            shard_siblings: node.shard_siblings,
            gradient_quorum: node.gradient_quorum,
            round_deadline: node.round_deadline,
            fault: node.fault,
            fault_attack,
            fault_rng: node.fault_rng,
            test_batch: node.test_batch,
            shutdown_targets: node.shutdown_targets,
            telemetry,
            request_retry: node.request_retry,
            checkpoint: node.checkpoint,
            start_round: 0,
            restarted: false,
            state_chunk: None,
            engine: Engine::auto(),
            pool: PayloadPool::default(),
            gradient_gar,
            spec_trip_announced: false,
            round: 0,
            phase1_done: false,
            served_snapshot: None,
            previous_snapshot: None,
            deferred_requests: Vec::new(),
            done_peers: HashSet::new(),
            round_latencies: Vec::new(),
            seq: 0,
            ledger: SuspicionLedger::default(),
            outcome: SelectionOutcome::default(),
        };
        if let Some(cp) = node.resume {
            cp.validate_for(actor.system.as_str(), actor.config.seed)?;
            actor.adopt_state(&cp, true)?;
            actor.start_round = cp.round as usize;
            actor.telemetry.resumes += 1;
        }
        Ok(actor)
    }

    /// Installs a checkpoint's training state: model, optimizer, and — for a
    /// disk resume of this node's *own* state (`own = true`) — the RNG
    /// streams. Live catch-up adopts a *peer's* chunk, whose RNG streams
    /// belong to that peer and are skipped.
    fn adopt_state(&mut self, cp: &Checkpoint, own: bool) -> CoreResult<()> {
        self.server
            .honest_mut()
            .write_model(&Tensor::from_slice(&cp.model))?;
        self.server
            .honest_mut()
            .optimizer_mut()
            .restore(cp.opt_steps, cp.velocity.as_deref().map(Tensor::from_slice));
        if own {
            if let Some(words) = cp.fault_rng {
                self.fault_rng = TensorRng::from_state_words(words);
            }
            if let Some(words) = cp.attack_rng {
                self.server.set_rng_state(words);
            }
        }
        Ok(())
    }

    /// Serializes this replica's current training state as of the completed
    /// iteration `iteration` (the checkpoint resumes at `iteration + 1`).
    fn build_checkpoint(&self, iteration: usize) -> Checkpoint {
        let optimizer = self.server.honest().optimizer();
        Checkpoint {
            system: self.system.as_str().to_string(),
            seed: self.config.seed,
            round: (iteration + 1) as u64,
            opt_steps: optimizer.steps(),
            model: self.server.honest().parameters().into_vec(),
            velocity: optimizer.velocity().map(|v| v.data().to_vec()),
            fault_rng: Some(self.fault_rng.state_words()),
            attack_rng: Some(self.server.rng_state()),
        }
    }

    /// Runs the replica to completion: the training loop, then — success or
    /// liveness failure alike — the worker wind-down this replica owns.
    pub fn run(mut self) -> CoreResult<ServerOutcome> {
        flight::set_thread_node(self.transport.local_id().0);
        let result = self.train();
        // Shutdown is best-effort and unconditional: after a liveness
        // failure the surviving worker processes must not be left waiting
        // out their idle timeout.
        if !self.shutdown_targets.is_empty() {
            let shutdown = self.stamped(&WireMessage::control(
                MsgKind::Shutdown,
                self.config.iterations as u64,
            ));
            for to in self.shutdown_targets.clone() {
                self.send(to, self.config.iterations as u64, shutdown.clone());
            }
        }
        // Let asynchronous transports put the queued tail (including the
        // shutdowns just sent) on the wire before the counters are read.
        self.transport.flush(Duration::from_secs(5));
        self.telemetry.peers = self.transport.peer_counters();
        let trace = result?;
        Ok(ServerOutcome {
            trace,
            final_model: self.server.honest().parameters(),
            telemetry: self.telemetry,
            round_latencies: self.round_latencies,
            resumed_from: (self.start_round > 0).then_some(self.start_round),
            suspicion: self.ledger.snapshot(),
        })
    }

    /// The replica's training loop.
    fn train(&mut self) -> CoreResult<TrainingTrace> {
        let model_quorum = self.config.model_quorum();
        // Sharded replicas export their round as a per-shard gauge so
        // `expfig watch` can show how far the slowest/fastest shard has got.
        let shard_round_gauge = self.shard.as_ref().map(|spec| {
            garfield_obs::metrics::gauge(
                "garfield_shard_round",
                "Current training round, per parameter shard.",
                &[("shard", &spec.index.to_string())],
            )
        });
        let mut trace = TrainingTrace::new(self.system.as_str(), self.config.effective_batch());
        let mut crashed = false;

        let mut iteration = self.start_round;
        while iteration < self.config.iterations {
            self.round = iteration;
            self.phase1_done = false;
            if let Some(Fault::CrashAt { iteration: at }) = self.fault {
                if iteration >= at {
                    crashed = true;
                    break;
                }
            }
            if let Some(Fault::RestartAt { crash, rejoin }) = self.fault {
                if !self.restarted && iteration >= crash {
                    // Die for real, then come back as a fresh incarnation
                    // and catch up from the fastest live peer's StateChunk.
                    self.transport.crash();
                    if self.transport.rejoin().is_err() {
                        crashed = true; // substrate rejoins by process respawn
                        break;
                    }
                    self.restarted = true;
                    self.telemetry.resumes += 1;
                    iteration = self.catch_up(rejoin.max(iteration))?;
                    continue;
                }
            }
            if let Some(Fault::Delay { millis }) = self.fault {
                std::thread::sleep(Duration::from_millis(millis));
            }
            let round_start = Instant::now();
            flight::record(EventKind::RoundStart, iteration as u64, None, 0.0);
            garfield_obs::http::set_health_round(iteration as u64);
            if let Some(gauge) = &shard_round_gauge {
                gauge.set(iteration as f64);
            }

            // --- get_gradients(iteration, q): broadcast the model (a shard
            // server's model is its slice, tagged with the coordinate range
            // so workers can assemble the full vector), unblock on the
            // fastest q gradient replies.
            let params = self.server.honest().parameters();
            let mut request_msg = WireMessage::new(
                MsgKind::GradientRequest,
                iteration as u64,
                0.0,
                params.data().to_vec(),
            );
            if let Some(spec) = &self.shard {
                request_msg =
                    request_msg.with_shard(spec.index as u16, spec.offset as u32, spec.len as u32);
            }
            let request = self.stamped(&request_msg);
            for to in self.worker_ids.clone() {
                self.send(to, iteration as u64, request.clone());
            }
            let worker_ids = self.worker_ids.clone();
            let replies = self.collect(
                MsgKind::GradientReply,
                iteration as u64,
                self.gradient_quorum,
                &request,
                &worker_ids,
            );
            if replies.len() < self.gradient_quorum {
                return Err(self.liveness_error(
                    "gradient",
                    iteration,
                    replies.len(),
                    self.gradient_quorum,
                ));
            }
            let mut loss_sum = 0.0f32;
            for (_, loss, _) in &replies {
                loss_sum += loss;
            }
            let mean_loss = loss_sum / replies.len() as f32;
            let mut communication = round_start.elapsed().as_secs_f64();

            // Aggregate straight from the decoded wire payloads: the GAR
            // reads the pooled buffers through borrowed views — no
            // per-gradient Tensor materialisation on the hot path.
            let aggregate_start = Instant::now();
            let reply_peers: Vec<u32> = replies.iter().map(|(id, _, _)| id.0).collect();
            let views: Vec<GradientView<'_>> = replies
                .iter()
                .map(|(_, _, values)| GradientView::from(values))
                .collect();
            let aggregated = self.server.honest().aggregate_views_observed(
                self.gradient_gar.as_ref(),
                &views,
                &self.engine,
                &mut self.outcome,
            )?;
            drop(views);
            // Replies are sorted by sender id (see `collect`), so view index
            // `i` of the outcome belongs to `reply_peers[i]`.
            self.ledger
                .observe_round(iteration as u64, &reply_peers, &self.outcome);
            self.server.honest_mut().update_model(&aggregated)?;
            let mut aggregation = aggregate_start.elapsed().as_secs_f64();
            // Speculative rounds leave a wire-level trail: one event per
            // round, hit (fast path held) or fallback (robust replay).
            match self.gradient_gar.fell_back() {
                Some(false) => {
                    flight::record(
                        EventKind::SpeculationHit,
                        iteration as u64,
                        None,
                        aggregation,
                    );
                }
                Some(true) => {
                    flight::record(
                        EventKind::SpeculationFallback,
                        iteration as u64,
                        None,
                        aggregation,
                    );
                    self.announce_speculation_trip(iteration as u64);
                }
                None => {}
            }
            for (_, _, values) in replies {
                self.pool.restore(values);
            }

            // The model is now the post-update state of this round: snapshot
            // it as the vector served to peers (one Byzantine corruption per
            // round, so the served content is scheduling-independent), then
            // answer any get_models() that raced ahead of us.
            self.phase1_done = true;
            if !self.peer_ids.is_empty() {
                self.refresh_served_snapshot();
            }
            self.flush_deferred();

            // --- get_models(q): pull the fastest q peer models (MSMW only).
            if self.system == SystemKind::Msmw && !self.peer_ids.is_empty() {
                let pull_start = Instant::now();
                let request = self.stamped(&WireMessage::control(
                    MsgKind::ModelRequest,
                    iteration as u64,
                ));
                for to in self.peer_ids.clone() {
                    self.send(to, iteration as u64, request.clone());
                }
                let peer_ids = self.peer_ids.clone();
                let model_replies = self.collect(
                    MsgKind::ModelReply,
                    iteration as u64,
                    model_quorum,
                    &request,
                    &peer_ids,
                );
                if model_replies.len() < model_quorum {
                    return Err(self.liveness_error(
                        "model",
                        iteration,
                        model_replies.len(),
                        model_quorum,
                    ));
                }
                let own = self.server.honest().parameters();
                communication += pull_start.elapsed().as_secs_f64();

                let merge_start = Instant::now();
                let mut merge_peers: Vec<u32> =
                    model_replies.iter().map(|(id, _, _)| id.0).collect();
                merge_peers.push(self.transport.local_id().0);
                let mut inputs: Vec<GradientView<'_>> = model_replies
                    .iter()
                    .map(|(_, _, values)| GradientView::from(values))
                    .collect();
                inputs.push(GradientView::from(&own));
                let model_gar = build_gar(&self.config.model_gar, inputs.len(), self.config.fps)?;
                let merged = self.server.honest().aggregate_views_observed(
                    model_gar.as_ref(),
                    &inputs,
                    &self.engine,
                    &mut self.outcome,
                )?;
                drop(inputs);
                // Byzantine *server* forensics: model merges score the peer
                // replicas (and this replica's own entry, last index).
                self.ledger
                    .observe_round(iteration as u64, &merge_peers, &self.outcome);
                self.server.honest_mut().write_model(&merged)?;
                aggregation += merge_start.elapsed().as_secs_f64();
                for (_, _, values) in model_replies {
                    self.pool.restore(values);
                }
            }

            // Live timing is wall-clock: the server cannot separate its
            // workers' compute from transfer, so the whole pull shows up as
            // communication and only the local GAR time is split out.
            trace.iterations.push(IterationTiming {
                computation: 0.0,
                communication,
                aggregation,
            });
            let round_latency = round_start.elapsed().as_secs_f64();
            self.round_latencies.push(round_latency);
            let obs = actor_obs();
            obs.phase_communication.observe(communication);
            obs.phase_aggregation.observe(aggregation);
            obs.round_seconds.observe(round_latency);
            obs.rounds_total.inc();
            flight::record(EventKind::RoundEnd, iteration as u64, None, round_latency);

            if let Some(test) = &self.test_batch {
                let every = self.config.eval_every;
                let last = iteration + 1 == self.config.iterations;
                if every != 0 && (iteration.is_multiple_of(every) || last) {
                    let accuracy = self.server.honest().compute_accuracy(test);
                    trace.accuracy.push(AccuracyPoint {
                        iteration,
                        sim_time: trace.total_time(),
                        accuracy,
                        loss: mean_loss,
                    });
                }
            }

            // The iteration boundary is the recoverable state: refresh the
            // StateChunk served to catching-up peers and, on the configured
            // cadence, persist the same record to disk.
            self.record_recovery_state(iteration)?;
            iteration += 1;
        }

        if crashed {
            self.transport.crash();
        } else {
            self.linger();
        }
        Ok(trace)
    }

    /// Receives until `want` replies of `(kind, round)` arrived or the
    /// deadline passed, servicing peer model requests along the way.
    ///
    /// Peers that have not replied after [`ServerActor::request_retry`] are
    /// re-sent `request`. Requests are idempotent (a worker recomputes the
    /// same gradient for the same round; model pulls answer from snapshots),
    /// so re-asking never changes what a live peer contributes — it exists
    /// for the peer whose first request died with a crashed incarnation and
    /// who can only contribute to this round if asked again.
    ///
    /// The result is sorted by sender id, which makes the aggregation input
    /// independent of message arrival *order*. Note the quorum *membership*
    /// is still arrival-driven when `want` is below the number of live
    /// repliers: full-quorum (synchronous) runs are bit-reproducible,
    /// sub-quorum asynchronous runs are live but not.
    fn collect(
        &mut self,
        kind: MsgKind,
        round: u64,
        want: usize,
        request: &bytes::Bytes,
        recipients: &[NodeId],
    ) -> Vec<Reply> {
        flight::record(EventKind::PullIssued, round, None, want as f64);
        let deadline = Instant::now() + self.round_deadline;
        let mut next_retry = Instant::now() + self.request_retry;
        let mut collected: Vec<Reply> = Vec::with_capacity(want);
        while collected.len() < want {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            if now >= next_retry {
                for &to in recipients {
                    if !collected.iter().any(|(id, _, _)| *id == to) {
                        self.send(to, round, request.clone());
                        self.telemetry.requests_retried += 1;
                        actor_obs().pull_retries.inc();
                        flight::record(EventKind::PullRetried, round, Some(to.0), 0.0);
                    }
                }
                next_retry = now + self.request_retry;
            }
            let wait = deadline.min(next_retry).saturating_duration_since(now);
            let envelope = match self.transport.recv_timeout(wait) {
                Ok(env) => env,
                Err(garfield_net::NetError::Timeout) => continue, // retry or deadline
                Err(_) => break,
            };
            self.telemetry.record_recv(envelope.payload.len());
            // Structural validation without materialising the payload:
            // control traffic and garbage never cost an allocation.
            let Ok(header) = WireMessage::peek(&envelope.payload) else {
                continue;
            };
            if header.kind == kind && header.round == round {
                // A shard server accepts only replies sliced exactly to its
                // own coordinate range: a mis-tagged slice is Byzantine noise
                // (or another shard's reply misrouted) and aggregating it
                // would silently mix coordinate spaces.
                if let Some(spec) = &self.shard {
                    let matches_shard = header.shard as usize == spec.index
                        && header.coord_offset as usize == spec.offset
                        && header.coord_len as usize == spec.len;
                    if !matches_shard {
                        continue;
                    }
                }
                // One reply per peer per round; duplicates are Byzantine noise.
                if !collected.iter().any(|(id, _, _)| *id == envelope.from) {
                    let mut values = self.pool.checkout();
                    if WireMessage::decode_into(&envelope.payload, &mut values).is_ok() {
                        collected.push((envelope.from, header.aux, values));
                        flight::record(EventKind::PullSatisfied, round, Some(envelope.from.0), 0.0);
                    } else {
                        self.pool.restore(values); // unreachable: peek accepted
                    }
                }
            } else {
                self.handle_protocol(envelope.from, header.kind, header.round);
            }
        }
        collected.sort_by_key(|(id, _, _)| *id);
        flight::record(EventKind::QuorumFormed, round, None, collected.len() as f64);
        collected
    }

    /// Handles protocol traffic that is not the reply currently waited on.
    /// Only the header matters: requests and done-markers carry no payload.
    fn handle_protocol(&mut self, from: NodeId, kind: MsgKind, round: u64) {
        match kind {
            MsgKind::ModelRequest => {
                // Serve the post-update state of the requested round: a
                // request for a round this replica has not yet updated for
                // (its own round, pre-update, or a future round a fast peer
                // raced into) is deferred until the matching snapshot exists
                // — sim semantics, where get_models() always observes peers
                // after their gradient step of the same round.
                let requested = round as usize;
                if requested < self.round || (requested == self.round && self.phase1_done) {
                    self.serve_model(from, round);
                } else {
                    self.deferred_requests.push((from, round));
                }
            }
            MsgKind::ServerDone => {
                self.done_peers.insert(from);
            }
            MsgKind::SpeculationTrip => {
                // A sibling shard's speculative fast path tripped: latch this
                // replica's GAR onto the robust fallback too (the sticky OR —
                // suspicion anywhere in the cluster disables speculation
                // everywhere). Marking the trip as announced stops this
                // replica from re-broadcasting when its own next round
                // reports the (now forced) fallback: the originator already
                // reached every sibling.
                self.gradient_gar.force_fallback();
                self.spec_trip_announced = true;
            }
            MsgKind::StateRequest => {
                // A recovering peer wants to catch up. Serve the latest
                // iteration-boundary state; `round` names the lowest round
                // the requester will accept, but serving an older one is
                // harmless — the requester keeps polling until the cluster
                // has advanced far enough.
                if let Some((next_round, chunk)) = self.state_chunk.clone() {
                    self.send(from, next_round, chunk);
                    self.telemetry.state_chunks_served += 1;
                    actor_obs().state_chunks_served.inc();
                    flight::record(EventKind::StateChunkServed, next_round, Some(from.0), 0.0);
                }
            }
            _ => {} // stale replies from rounds this replica already left behind
        }
    }

    /// Refreshes the recovery artefacts at the boundary of the completed
    /// `iteration`: the in-memory `StateChunk` served to catching-up peers
    /// (only where peers exist to request it) and, on the configured
    /// cadence, the on-disk checkpoint.
    fn record_recovery_state(&mut self, iteration: usize) -> CoreResult<()> {
        let serve_peers = !self.peer_ids.is_empty();
        let disk_due = self.checkpoint.as_ref().is_some_and(|p| p.due(iteration));
        if !serve_peers && !disk_due {
            return Ok(());
        }
        // One state capture feeds both transports: the model (and velocity)
        // copy is the expensive part at large d, so never take it twice.
        let cp = self.build_checkpoint(iteration);
        if serve_peers {
            let message = WireMessage::new(
                MsgKind::StateChunk,
                cp.round,
                0.0, // chunk index: state fits a single frame today
                cp.to_wire_words(),
            );
            // Deliberately unstamped (zero trace fields): the chunk is
            // encoded once and served arbitrarily later, so a build-time
            // timestamp would fabricate one-way delays. Transports skip
            // unstamped payloads when recording wire trace events.
            self.state_chunk = Some((cp.round, message.encode()));
        }
        if disk_due {
            let dir = self
                .checkpoint
                .as_ref()
                .expect("disk_due implies a policy")
                .dir
                .clone();
            let span = garfield_obs::span_start();
            cp.save(dir)?;
            let spent = garfield_obs::span_end(span, &actor_obs().phase_checkpoint);
            self.telemetry.checkpoints_written += 1;
            actor_obs().checkpoints_written.inc();
            flight::record(
                EventKind::CheckpointWritten,
                iteration as u64,
                None,
                spent.map(|d| d.as_secs_f64()).unwrap_or(0.0),
            );
        }
        Ok(())
    }

    /// The rejoin catch-up: poll live peers with `StateRequest` until one
    /// serves a `StateChunk` at or past `min_round`, adopt its model and
    /// optimizer state, and return the round training resumes at.
    ///
    /// While catching up the replica is not silent: it keeps answering peer
    /// model requests with its (stale) crash-time snapshot — a straggler's
    /// behaviour, covered by the model GAR's `fps` tolerance — so peers at
    /// full model quorum are not stalled by the recovery.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Net`] when no peer serves a fresh-enough chunk
    /// before the round deadline.
    fn catch_up(&mut self, min_round: usize) -> CoreResult<usize> {
        let deadline = Instant::now() + self.round_deadline;
        let mut next_ask = Instant::now(); // ask immediately, then retry
        let request = self.stamped(&WireMessage::control(
            MsgKind::StateRequest,
            min_round as u64,
        ));
        let mut values = self.pool.checkout();
        let adopted = loop {
            let now = Instant::now();
            if now >= deadline {
                self.pool.restore(values);
                return Err(self.liveness_error("state", min_round, 0, 1));
            }
            if now >= next_ask {
                for to in self.peer_ids.clone() {
                    self.send(to, min_round as u64, request.clone());
                }
                next_ask = now + self.request_retry;
            }
            let wait = deadline.min(next_ask).saturating_duration_since(now);
            let envelope = match self.transport.recv_timeout(wait) {
                Ok(env) => env,
                Err(garfield_net::NetError::Timeout) => continue,
                Err(_) => {
                    self.pool.restore(values);
                    return Err(self.liveness_error("state", min_round, 0, 1));
                }
            };
            self.telemetry.record_recv(envelope.payload.len());
            let Ok(header) = WireMessage::peek(&envelope.payload) else {
                continue;
            };
            match header.kind {
                MsgKind::StateChunk => {
                    if WireMessage::decode_into(&envelope.payload, &mut values).is_err() {
                        continue; // unreachable: peek accepted
                    }
                    let Ok(cp) = Checkpoint::from_wire_words(&values) else {
                        continue; // a Byzantine peer may serve garbage state
                    };
                    // A chunk is adopted only if it survives every shape
                    // check a Byzantine peer could fail: experiment identity,
                    // freshness, model and velocity dimensions. A hostile
                    // chunk must cost this replica nothing but the poll —
                    // never an aborted run.
                    let d = self.server.honest().dimension();
                    if cp
                        .validate_for(self.system.as_str(), self.config.seed)
                        .is_err()
                        || cp.model.len() != d
                        || cp.velocity.as_ref().is_some_and(|v| v.len() != d)
                    {
                        continue;
                    }
                    if (cp.round as usize) < min_round {
                        continue; // peer not there yet: keep polling
                    }
                    self.telemetry.state_chunks_received += 1;
                    break cp;
                }
                MsgKind::ModelRequest => {
                    // Serve the stale snapshot rather than deferring: a
                    // recovering replica must not stall its peers' merges.
                    self.serve_model(envelope.from, header.round);
                }
                _ => self.handle_protocol(envelope.from, header.kind, header.round),
            }
        };
        self.pool.restore(values);
        self.adopt_state(&adopted, false)?;
        Ok((adopted.round as usize).min(self.config.iterations))
    }

    /// Recomputes the vector this replica serves to peers for the current
    /// round (corrupted if the replica is Byzantine — by config attack inside
    /// [`ByzantineServer::served_model`], by fault-plan attack here), keeping
    /// the previous round's snapshot.
    fn refresh_served_snapshot(&mut self) {
        let served = self.server.served_model(&[]);
        let served = match &self.fault_attack {
            Some(attack) => attack.corrupt(&served, &[], &mut self.fault_rng),
            None => served,
        };
        self.previous_snapshot = self.served_snapshot.replace((self.round, served));
    }

    /// Replies to a peer's `get_models()` with the served model snapshotted
    /// for the requested round.
    ///
    /// Requests for rounds older than both snapshots (possible only in
    /// sub-quorum asynchronous regimes, where a replica can outrun a slow
    /// peer by more than a round) are answered with the latest snapshot —
    /// the freshest state the replica can still offer.
    fn serve_model(&mut self, to: NodeId, round: u64) {
        let model = match (&self.previous_snapshot, &self.served_snapshot) {
            (Some((previous, model)), _) if *previous as u64 == round => model.clone(),
            (_, Some((_, latest))) => latest.clone(),
            // No completed phase 1 yet: the peer's deadline handles it.
            (_, None) => return,
        };
        let reply = self.stamped(&WireMessage::new(
            MsgKind::ModelReply,
            round,
            0.0,
            model.into_vec(),
        ));
        self.send(to, round, reply);
    }

    /// Serves the deferred model requests whose round this replica has now
    /// updated for, keeping later ones deferred.
    fn flush_deferred(&mut self) {
        let current = self.round;
        let pending = std::mem::take(&mut self.deferred_requests);
        for (to, round) in pending {
            if round as usize <= current {
                self.serve_model(to, round);
            } else {
                self.deferred_requests.push((to, round));
            }
        }
    }

    /// After the last iteration, keep serving peer model requests until every
    /// peer announced completion (or the deadline passes), so slower replicas
    /// can finish their final `get_models()` round.
    fn linger(&mut self) {
        if self.peer_ids.is_empty() {
            return;
        }
        self.round = usize::MAX; // every request now counts as "past round"
        self.phase1_done = true;
        self.flush_deferred();
        let done = self.stamped(&WireMessage::control(
            MsgKind::ServerDone,
            self.config.iterations as u64,
        ));
        for to in self.peer_ids.clone() {
            self.send(to, self.config.iterations as u64, done.clone());
        }
        let deadline = Instant::now() + self.round_deadline;
        while self.done_peers.len() < self.peer_ids.len() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let envelope = match self.transport.recv_timeout(deadline - now) {
                Ok(env) => env,
                Err(_) => break,
            };
            self.telemetry.record_recv(envelope.payload.len());
            if let Ok(header) = WireMessage::peek(&envelope.payload) {
                self.handle_protocol(envelope.from, header.kind, header.round);
            }
        }
    }

    /// Tells the shard siblings this replica's speculative fast path tripped
    /// (once per run): the receiving end of the cluster-wide sticky OR. The
    /// broadcast is fire-and-forget — a sibling that misses it only stays on
    /// the fast path until its own slice shows suspicion, which is the
    /// per-shard behaviour sharding starts from anyway.
    fn announce_speculation_trip(&mut self, round: u64) {
        if self.spec_trip_announced || self.shard_siblings.is_empty() {
            return;
        }
        self.spec_trip_announced = true;
        let shard = self.shard.as_ref().map(|s| s.index as u16).unwrap_or(0);
        let trip = self.stamped(
            &WireMessage::control(MsgKind::SpeculationTrip, round).with_shard(shard, 0, 0),
        );
        for to in self.shard_siblings.clone() {
            self.send(to, round, trip.clone());
        }
    }

    /// [`encode_stamped`] with this replica's origin id and sequence counter.
    fn stamped(&mut self, msg: &WireMessage) -> bytes::Bytes {
        encode_stamped(msg, self.transport.local_id().0, &mut self.seq)
    }

    /// Sends one payload, counting it; per-peer failures are tolerated (a
    /// crashed recipient is exactly what quorums exist for).
    fn send(&mut self, to: NodeId, tag: u64, payload: bytes::Bytes) {
        let bytes = payload.len();
        if self.transport.send(to, tag, payload).is_ok() {
            self.telemetry.record_send(bytes);
        }
    }

    fn liveness_error(&self, what: &str, iteration: usize, got: usize, want: usize) -> CoreError {
        CoreError::Net(format!(
            "live {}: server {} collected only {got}/{want} {what} replies for iteration \
             {iteration} within {:?} — deploy n ≥ q + f nodes to preserve liveness",
            self.system, self.index, self.round_deadline
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garfield_core::{shard_server, Deployment, ShardMap, ShardSpec};
    use garfield_net::{Router, RouterTransport};

    fn sharded_config(shards: usize) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::small();
        cfg.nw = 1;
        cfg.fw = 0;
        cfg.shards = shards;
        cfg.gradient_gar = garfield_aggregation::GarKind::Median;
        cfg.iterations = 2;
        cfg
    }

    /// Builds the shard server actor of `index` over `router`, under the
    /// speculative system (so its gradient GAR exposes the fast-path latch).
    fn shard_actor(
        router: &Router,
        config: &ExperimentConfig,
        index: usize,
        siblings: Vec<NodeId>,
    ) -> ServerActor {
        let parts = Deployment::new(config.clone()).unwrap().into_live_parts();
        let map = ShardMap::new(parts.dimension, config.shards).unwrap();
        let initial = parts.servers[0].honest().parameters();
        let node = ServerNode {
            index,
            server: shard_server(map.spec(index), initial.data(), config),
            system: SystemKind::Speculative,
            config: config.clone(),
            worker_ids: Vec::new(),
            peer_ids: Vec::new(),
            shard: Some(map.spec(index)),
            shard_siblings: siblings,
            gradient_quorum: 1,
            round_deadline: Duration::from_millis(200),
            fault: None,
            fault_rng: TensorRng::seed_from(7),
            test_batch: None,
            shutdown_targets: Vec::new(),
            request_retry: Duration::from_millis(50),
            checkpoint: None,
            resume: None,
        };
        let transport = Box::new(RouterTransport::connect(router, NodeId(index as u32)).unwrap());
        ServerActor::from_node(node, transport).unwrap()
    }

    #[test]
    fn a_sibling_speculation_trip_latches_the_fallback_without_rebroadcast() {
        let router = Router::new();
        let sibling = RouterTransport::connect(&router, NodeId(1)).unwrap();
        let mut actor = shard_actor(&router, &sharded_config(2), 0, vec![NodeId(1)]);
        assert_eq!(actor.gradient_gar.fell_back(), Some(false));
        actor.handle_protocol(NodeId(1), MsgKind::SpeculationTrip, 3);
        assert_eq!(
            actor.gradient_gar.fell_back(),
            Some(true),
            "the sticky-OR receive must latch the robust fallback"
        );
        // Receiving also arms the announce guard: the originator already
        // reached every sibling, so echoing would only ping-pong trips.
        actor.announce_speculation_trip(4);
        assert!(matches!(
            sibling.recv_timeout(Duration::from_millis(100)),
            Err(garfield_net::NetError::Timeout)
        ));
    }

    #[test]
    fn an_own_trip_is_broadcast_to_every_sibling_exactly_once() {
        let router = Router::new();
        let s1 = RouterTransport::connect(&router, NodeId(1)).unwrap();
        let s2 = RouterTransport::connect(&router, NodeId(2)).unwrap();
        let mut actor = shard_actor(&router, &sharded_config(3), 0, vec![NodeId(1), NodeId(2)]);
        actor.announce_speculation_trip(5);
        actor.announce_speculation_trip(6); // latched: must not send again
        for t in [&s1, &s2] {
            let env = t.recv_timeout(Duration::from_secs(1)).unwrap();
            let header = WireMessage::peek(&env.payload).unwrap();
            assert_eq!(header.kind, MsgKind::SpeculationTrip);
            assert_eq!(header.round, 5);
            assert_eq!(header.shard, 0, "the trip names the tripping shard");
            assert!(matches!(
                t.recv_timeout(Duration::from_millis(100)),
                Err(garfield_net::NetError::Timeout)
            ));
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_late_model_request_gets_the_snapshot_of_its_own_round() {
        let mut cfg = ExperimentConfig::small();
        cfg.nps = 3;
        cfg.fps = 1;
        let parts = Deployment::new(cfg.clone()).unwrap().into_live_parts();
        let d = parts.dimension;
        let node = ServerNode {
            index: 0,
            server: parts.servers.into_iter().next().unwrap(),
            system: SystemKind::Msmw,
            gradient_quorum: cfg.gradient_quorum(SystemKind::Msmw),
            config: cfg,
            worker_ids: Vec::new(),
            peer_ids: vec![NodeId(1)],
            shard: None,
            shard_siblings: Vec::new(),
            round_deadline: Duration::from_millis(200),
            fault: None,
            fault_rng: TensorRng::seed_from(7),
            test_batch: None,
            shutdown_targets: Vec::new(),
            request_retry: Duration::from_millis(50),
            checkpoint: None,
            resume: None,
        };
        let router = Router::new();
        let peer = RouterTransport::connect(&router, NodeId(1)).unwrap();
        let transport = Box::new(RouterTransport::connect(&router, NodeId(0)).unwrap());
        let mut actor = ServerActor::from_node(node, transport).unwrap();

        // Phase 1 of rounds 4 and 5, each ending on a distinct model.
        let model_of = |round: usize| Tensor::from_slice(&vec![round as f32; d]);
        for round in [4, 5] {
            actor.round = round;
            actor
                .server
                .honest_mut()
                .write_model(&model_of(round))
                .unwrap();
            actor.phase1_done = true;
            actor.refresh_served_snapshot();
        }

        // A peer's get_models() for round 4 arriving only now must observe
        // the post-update state of round 4, not the newer round 5.
        actor.handle_protocol(NodeId(1), MsgKind::ModelRequest, 4);
        let env = peer.recv_timeout(Duration::from_secs(5)).unwrap();
        let reply = WireMessage::decode(&env.payload).unwrap();
        assert_eq!(reply.kind, MsgKind::ModelReply);
        assert_eq!(reply.round, 4);
        assert_eq!(bits(&reply.values), bits(model_of(4).data()));
    }

    #[test]
    fn worker_assembles_slices_computes_once_and_reslices_replies_bit_exactly() {
        let cfg = sharded_config(2);
        let parts = Deployment::new(cfg.clone()).unwrap().into_live_parts();
        let dimension = parts.dimension;
        let map = ShardMap::new(dimension, 2).unwrap();
        let initial = parts.servers[0].honest().parameters();

        // The unsharded reference: an identically-constructed worker
        // computing on the full parameter vector.
        let mut reference = Deployment::new(cfg.clone())
            .unwrap()
            .into_live_parts()
            .workers
            .remove(0);
        let (ref_loss, ref_grad) = reference.honest_compute(&initial, 0).unwrap();

        let router = Router::new();
        let s0 = RouterTransport::connect(&router, NodeId(0)).unwrap();
        let s1 = RouterTransport::connect(&router, NodeId(1)).unwrap();
        let transport = Box::new(RouterTransport::connect(&router, NodeId(2)).unwrap());
        let mut workers = parts.workers;
        let actor = WorkerActor {
            telemetry: NodeTelemetry::new(2, garfield_net::Role::Worker),
            transport,
            worker: workers.remove(0),
            fault: None,
            fault_attack: None,
            fault_rng: TensorRng::seed_from(3),
            idle_timeout: Duration::from_secs(5),
            restarted: false,
            seq: 0,
            attack_history: Vec::new(),
            shards: 2,
            dimension,
            pending_slices: Vec::new(),
            sent_cache: Vec::new(),
        };
        let handle = std::thread::spawn(move || actor.run());

        let send_slice = |t: &RouterTransport, spec: ShardSpec, round: u64| {
            let msg = WireMessage::new(
                MsgKind::GradientRequest,
                round,
                0.0,
                spec.slice(initial.data()).to_vec(),
            )
            .with_shard(spec.index as u16, spec.offset as u32, spec.len as u32);
            t.send(NodeId(2), round, msg.encode()).unwrap();
        };
        let recv_reply = |t: &RouterTransport, spec: ShardSpec| -> (f32, Vec<f32>) {
            let env = t.recv_timeout(Duration::from_secs(5)).unwrap();
            let header = WireMessage::peek(&env.payload).unwrap();
            assert_eq!(header.kind, MsgKind::GradientReply);
            assert_eq!(header.round, 0);
            assert_eq!(header.shard as usize, spec.index);
            assert_eq!(header.coord_offset as usize, spec.offset);
            assert_eq!(header.coord_len as usize, spec.len);
            let msg = WireMessage::decode(&env.payload).unwrap();
            (header.aux, msg.values)
        };

        // No reply until the round's *last* slice lands.
        send_slice(&s0, map.spec(0), 0);
        assert!(matches!(
            s0.recv_timeout(Duration::from_millis(150)),
            Err(garfield_net::NetError::Timeout)
        ));
        send_slice(&s1, map.spec(1), 0);
        let (loss0, slice0) = recv_reply(&s0, map.spec(0));
        let (loss1, slice1) = recv_reply(&s1, map.spec(1));

        // Both shards observe the same loss, and the stitched slices are the
        // unsharded gradient, bit for bit.
        assert_eq!(loss0.to_bits(), ref_loss.to_bits());
        assert_eq!(loss1.to_bits(), ref_loss.to_bits());
        let mut stitched = slice0;
        stitched.extend_from_slice(&slice1);
        assert_eq!(bits(&stitched), bits(ref_grad.data()));

        // A retry re-slices the sent cache bit-exactly (no recompute).
        send_slice(&s1, map.spec(1), 0);
        let (retry_loss, retry_slice) = recv_reply(&s1, map.spec(1));
        assert_eq!(retry_loss.to_bits(), ref_loss.to_bits());
        assert_eq!(bits(&retry_slice), bits(&stitched[map.spec(1).range()]));

        s0.send(
            NodeId(2),
            1,
            WireMessage::control(MsgKind::Shutdown, 1).encode(),
        )
        .unwrap();
        let telemetry = handle.join().unwrap();
        assert_eq!(
            telemetry.messages_sent, 3,
            "two first replies plus one cached retry"
        );
    }
}
