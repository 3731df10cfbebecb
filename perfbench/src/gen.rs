//! Seeded inputs of every workload. The run seed is the only source of
//! randomness: one seed gives the same instances, bodies and request
//! streams, byte for byte, and the programs under test only ever see
//! these generated inputs.

use std::collections::VecDeque;

use mtsp_model::generate::{random_instance, CurveFamily, DagFamily};
use mtsp_model::textio::write_instance;
use mtsp_model::wire::{write_request, Request};
use mtsp_model::Instance;

use crate::Scale;

/// SplitMix64, for the benchmark's own choices: instance seeds, burst
/// sizes, edge endpoints and request order.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// An independent seed for input stream `stream` of run seed `seed`.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Client connections of the serve workloads.
pub const CONNECTIONS: usize = 2;

// ---------------------------------------------------------------------------
// solve-cold
// ---------------------------------------------------------------------------

/// DAG families of `solve-cold`.
const COLD_FAMILIES: [DagFamily; 6] = [
    DagFamily::Layered,
    DagFamily::Chain,
    DagFamily::SeriesParallel,
    DagFamily::ForkJoin,
    DagFamily::Wavefront,
    DagFamily::Cholesky,
];

/// Most LP rows (`n + |E|`, the crashing LP's basis dimension less 2) a
/// `solve-cold` instance may have: that of the fixed cholesky instance.
/// The dense basis inverse is O(rows²), so the largest LP sets the peak
/// memory and the slowest solves; random families are redrawn above it,
/// which keeps both the same for every seed.
const COLD_MAX_ROWS: usize = 252;

/// `solve-cold` instances: every family at every size with mixed speedup
/// curves, in rounds of fresh seeds. Rounds are outermost, so the prefix
/// of the list a short run reaches still covers the families evenly.
pub fn cold_instances(seed: u64, scale: Scale) -> Vec<Instance> {
    let (sizes, m, rounds): (&[usize], usize, usize) = match scale {
        Scale::Full => (&[48, 64], 16, 12),
        Scale::Toy => (&[10], 4, 1),
    };
    let mut out = Vec::new();
    for _ in 0..rounds {
        for family in COLD_FAMILIES {
            for &n in sizes {
                let stream = 64 * out.len() as u64;
                let ins = (0..64)
                    .map(|draw| {
                        let s = sub_seed(seed, stream + draw);
                        random_instance(family, CurveFamily::Mixed, n, m, s)
                    })
                    .find(|ins| ins.n() + ins.dag().edge_count() <= COLD_MAX_ROWS)
                    .expect("a draw within the row limit");
                out.push(ins);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// serve-solve-hot
// ---------------------------------------------------------------------------

/// DAG families of the `serve-solve-hot` bodies: fixed structures, so
/// the seed draws only the speedup curves and every seed's bodies weigh
/// about the same to parse, hash and render.
const HOT_FAMILIES: [DagFamily; 4] = [
    DagFamily::Chain,
    DagFamily::ForkJoin,
    DagFamily::Wavefront,
    DagFamily::Cholesky,
];

/// Tenants the `serve-solve-hot` requests are spread over. The daemon
/// routes `SOLVE` by tenant, so several tenants keep both shards busy.
const HOT_TENANTS: usize = 8;

/// One distinct `SOLVE` request of `serve-solve-hot`.
#[derive(Debug, Clone)]
pub struct HotRequest {
    /// Index of the instance in the body.
    pub instance: usize,
    /// The request line `SOLVE <tenant> <k>`.
    pub line: String,
    /// The `mtsp-instance v1` body, `k` lines.
    pub body: String,
    /// Line and body as sent.
    pub bytes: Vec<u8>,
}

/// `serve-solve-hot` inputs.
#[derive(Debug, Clone)]
pub struct HotPlan {
    /// The instances behind the bodies.
    pub instances: Vec<Instance>,
    /// Every distinct request, tenant by tenant: the first
    /// `instances.len()` are tenant 0 solving each instance once.
    pub requests: Vec<HotRequest>,
    /// Indices into `requests`, in the order clients cycle through them.
    pub order: Vec<usize>,
}

/// A few bodies of about 100 tasks on m = 16, one per family in
/// [`HOT_FAMILIES`], requested by [`HOT_TENANTS`] tenants in a seeded
/// order.
pub fn hot_plan(seed: u64, scale: Scale) -> HotPlan {
    let (n, m) = match scale {
        Scale::Full => (99, 16),
        Scale::Toy => (10, 4),
    };
    let instances: Vec<Instance> = HOT_FAMILIES
        .iter()
        .enumerate()
        .map(|(k, &family)| {
            random_instance(
                family,
                CurveFamily::Mixed,
                n,
                m,
                sub_seed(seed, 1_000 + k as u64),
            )
        })
        .collect();
    let bodies: Vec<String> = instances.iter().map(write_instance).collect();
    let mut requests = Vec::new();
    for tenant in 0..HOT_TENANTS {
        for (instance, body) in bodies.iter().enumerate() {
            let line = write_request(&Request::Solve {
                tenant: format!("h{tenant}"),
                body_lines: body.lines().count(),
            });
            let bytes = format!("{line}\n{body}").into_bytes();
            requests.push(HotRequest {
                instance,
                line,
                body: body.clone(),
                bytes,
            });
        }
    }
    let mut rng = Rng::new(sub_seed(seed, 2_000));
    let order = (0..256).map(|_| rng.below(requests.len())).collect();
    HotPlan {
        instances,
        requests,
        order,
    }
}

// ---------------------------------------------------------------------------
// serve-online
// ---------------------------------------------------------------------------

/// Offered request rate of `serve-online` over both connections,
/// requests per second. Offered all at once, the stream completes at
/// 6 800–7 400 requests/s on the 2-core reference machine (journaling
/// with fsync), but that machine is shared and at times runs at a third
/// of its speed; an open loop near capacity then builds a backlog. At
/// 1 000 requests/s the queues stay short through such phases (see
/// `README.md`).
pub const ONLINE_RATE: f64 = 1000.0;

/// Request classes, for per-class latencies and dispatch times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `ARRIVE`, `EDGE`, `MACHINES`, `START`, `FINISH`: journaled, no LP.
    Mutate,
    /// `REPLAN`: journaled, re-solves the suffix LP.
    Replan,
    /// `SOLVE`: a one-shot solve through the shared cache.
    Solve,
    /// Everything else (`OPEN` in these workloads).
    Other,
}

/// The class of a request.
pub fn class_of(req: &Request) -> Class {
    match req {
        Request::Arrive { .. }
        | Request::Edge { .. }
        | Request::Machines { .. }
        | Request::Start { .. }
        | Request::Finish { .. } => Class::Mutate,
        Request::Replan { .. } => Class::Replan,
        Request::Solve { .. } => Class::Solve,
        _ => Class::Other,
    }
}

/// One request of the open-loop stream.
#[derive(Debug, Clone)]
pub struct Timed {
    /// The request.
    pub req: Request,
    /// Its wire line, `\n`-terminated.
    pub bytes: Vec<u8>,
    /// When it is due, seconds after the window opens.
    pub due_s: f64,
}

/// What one client connection sends: its sessions' `OPEN`s during
/// set-up, then its share of the timed stream.
#[derive(Debug, Clone, Default)]
pub struct ConnPlan {
    /// Requests sent during set-up.
    pub setup: Vec<Request>,
    /// Requests of the measured window, in due order.
    pub timed: Vec<Timed>,
}

impl ConnPlan {
    /// Every request of the connection as sent, one line each.
    pub fn request_bytes(&self) -> Vec<Vec<u8>> {
        self.setup
            .iter()
            .map(|r| format!("{}\n", write_request(r)).into_bytes())
            .chain(self.timed.iter().map(|t| t.bytes.clone()))
            .collect()
    }

    /// The connection's whole request script.
    pub fn script(&self) -> String {
        self.request_bytes()
            .into_iter()
            .map(|b| String::from_utf8_lossy(&b).into_owned())
            .collect()
    }
}

/// `serve-online` inputs.
#[derive(Debug, Clone)]
pub struct OnlinePlan {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// What each connection sends.
    pub conns: Vec<ConnPlan>,
}

impl OnlinePlan {
    /// `(connection, request)` in the order the daemon sees them while it
    /// keeps up: the set-up requests, then the timed stream by due time.
    pub fn in_order(&self) -> Vec<(usize, &Request)> {
        let mut out: Vec<(usize, &Request)> = Vec::new();
        for (c, cp) in self.conns.iter().enumerate() {
            out.extend(cp.setup.iter().map(|r| (c, r)));
        }
        let mut timed: Vec<(f64, usize, &Request)> = self
            .conns
            .iter()
            .enumerate()
            .flat_map(|(c, cp)| cp.timed.iter().map(move |t| (t.due_s, c, &t.req)))
            .collect();
        timed.sort_by(|a, b| a.0.total_cmp(&b.0));
        out.extend(timed.into_iter().map(|(_, c, r)| (c, r)));
        out
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Arrived,
    Planned,
    Running,
    Finished,
}

/// Smallest arrival burst of a round; bursts span `MIN_BURST ..
/// MIN_BURST + BURST_SPREAD`.
const MIN_BURST: usize = 3;
const BURST_SPREAD: usize = 4;
/// Most tasks started in one round.
const MAX_STARTS: usize = 6;
/// New tasks take their predecessors among this many latest tasks.
const EDGE_WINDOW: usize = 8;

/// The client side of one session: an executor that only sends requests
/// the daemon must accept — it starts planned tasks whose predecessors
/// finished, finishes running ones, and keeps event times increasing —
/// so no operation of the workload fails.
struct SessionSim {
    tenant: String,
    session: String,
    rng: Rng,
    profiles: Vec<Vec<f64>>,
    state: Vec<TaskState>,
    preds: Vec<Vec<usize>>,
    t: f64,
    max_pending: usize,
    queue: VecDeque<Request>,
}

impl SessionSim {
    fn new(tenant: String, session: String, m: usize, seed: u64, max_pending: usize) -> SessionSim {
        let pool = random_instance(DagFamily::Independent, CurveFamily::Mixed, 128, m, seed);
        SessionSim {
            tenant,
            session,
            rng: Rng::new(sub_seed(seed, 1)),
            profiles: pool.profiles().iter().map(|p| p.times().to_vec()).collect(),
            state: Vec::new(),
            preds: Vec::new(),
            t: 0.0,
            max_pending,
            queue: VecDeque::new(),
        }
    }

    fn next(&mut self) -> Request {
        if self.queue.is_empty() {
            self.round();
        }
        self.queue.pop_front().expect("every round emits requests")
    }

    /// One round at the next logical time: finish the tasks started last
    /// round; a burst of arrivals with edges from recent tasks (none while
    /// `max_pending` tasks wait, which bounds the suffix LP); a replan;
    /// start what is ready; two more replan ticks, the second with nothing
    /// changed since the first, so the epoch LP is reused.
    fn round(&mut self) {
        self.t += 1.0;
        let t = self.t;
        let names = (self.tenant.clone(), self.session.clone());
        let ids = || names.clone();
        for task in 0..self.state.len() {
            if self.state[task] == TaskState::Running {
                self.state[task] = TaskState::Finished;
                let (tenant, session) = ids();
                self.queue.push_back(Request::Finish {
                    tenant,
                    session,
                    t,
                    task,
                });
            }
        }
        let pending = self
            .state
            .iter()
            .filter(|s| matches!(s, TaskState::Arrived | TaskState::Planned))
            .count();
        let burst = if pending >= self.max_pending {
            0
        } else {
            MIN_BURST + self.rng.below(BURST_SPREAD)
        };
        for _ in 0..burst {
            let succ = self.state.len();
            let (tenant, session) = ids();
            self.queue.push_back(Request::Arrive {
                tenant,
                session,
                t,
                times: self.profiles[succ % self.profiles.len()].clone(),
            });
            self.state.push(TaskState::Arrived);
            self.preds.push(Vec::new());
            for _ in 0..self.rng.below(3) {
                if succ == 0 {
                    break;
                }
                let lo = succ.saturating_sub(EDGE_WINDOW);
                let pred = lo + self.rng.below(succ - lo);
                if !self.preds[succ].contains(&pred) {
                    self.preds[succ].push(pred);
                    let (tenant, session) = ids();
                    self.queue.push_back(Request::Edge {
                        tenant,
                        session,
                        t,
                        pred,
                        succ,
                    });
                }
            }
        }
        let (tenant, session) = ids();
        self.queue.push_back(Request::Replan { tenant, session, t });
        for s in &mut self.state {
            if *s == TaskState::Arrived {
                *s = TaskState::Planned;
            }
        }
        let ready: Vec<usize> = (0..self.state.len())
            .filter(|&j| {
                self.state[j] == TaskState::Planned
                    && self.preds[j]
                        .iter()
                        .all(|&p| self.state[p] == TaskState::Finished)
            })
            .take(MAX_STARTS)
            .collect();
        for task in ready {
            self.state[task] = TaskState::Running;
            let (tenant, session) = ids();
            self.queue.push_back(Request::Start {
                tenant,
                session,
                t,
                task,
            });
        }
        for tick in [0.25, 0.5] {
            let (tenant, session) = ids();
            self.queue.push_back(Request::Replan {
                tenant,
                session,
                t: t + tick,
            });
        }
    }
}

/// `serve-online` inputs: `rate × seconds` requests from several tenants'
/// sessions, interleaved request by request across the sessions and due
/// at evenly spaced times; each connection carries half of the sessions.
pub fn online_plan(seed: u64, seconds: f64, scale: Scale) -> OnlinePlan {
    let (tenants, sessions, m, rate, max_pending) = match scale {
        Scale::Full => (4, 2, 16, ONLINE_RATE, 24),
        Scale::Toy => (2, 1, 4, 200.0, 8),
    };
    let mut sims = Vec::new();
    for tenant in 0..tenants {
        for session in 0..sessions {
            let stream = 3_000 + sims.len() as u64;
            sims.push(SessionSim::new(
                format!("t{tenant}"),
                format!("s{session}"),
                m,
                sub_seed(seed, stream),
                max_pending,
            ));
        }
    }
    let mut conns: Vec<ConnPlan> = (0..CONNECTIONS).map(|_| ConnPlan::default()).collect();
    for (k, sim) in sims.iter().enumerate() {
        conns[k % CONNECTIONS].setup.push(Request::Open {
            tenant: sim.tenant.clone(),
            session: sim.session.clone(),
            m,
        });
    }
    let total = (rate * seconds).round().max(1.0) as usize;
    for i in 0..total {
        let k = i % sims.len();
        let req = sims[k].next();
        let bytes = format!("{}\n", write_request(&req)).into_bytes();
        conns[k % CONNECTIONS].timed.push(Timed {
            req,
            bytes,
            due_s: i as f64 / rate,
        });
    }
    OnlinePlan { rate, conns }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = online_plan(3, 0.5, Scale::Toy);
        let b = online_plan(3, 0.5, Scale::Toy);
        let c = online_plan(4, 0.5, Scale::Toy);
        let scripts = |p: &OnlinePlan| p.conns.iter().map(ConnPlan::script).collect::<Vec<_>>();
        assert_eq!(scripts(&a), scripts(&b));
        assert_ne!(scripts(&a), scripts(&c));
        assert_eq!(cold_instances(3, Scale::Toy), cold_instances(3, Scale::Toy));
        assert_eq!(hot_plan(3, Scale::Toy).order, hot_plan(3, Scale::Toy).order);
    }

    #[test]
    fn online_stream_mixes_every_class_and_is_due_in_order() {
        let plan = online_plan(1, 2.0, Scale::Toy);
        let order = plan.in_order();
        assert_eq!(order.len(), 2 + 400);
        for class in [Class::Mutate, Class::Replan, Class::Other] {
            assert!(order.iter().any(|(_, r)| class_of(r) == class), "{class:?}");
        }
        for cp in &plan.conns {
            assert!(cp.timed.windows(2).all(|w| w[0].due_s < w[1].due_s));
        }
    }
}
