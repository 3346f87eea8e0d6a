//! Spans recorded by the ledger's own files around the calls into each
//! layer (the traced pass), and the self-time arithmetic over them.
//!
//! A span has a name, a start, an end, a parent and a request id.
//! Self time is the span's duration minus the part of that interval
//! its child spans cover. Spans stay in memory during a run and are
//! written out as JSON lines when it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds from the run's origin for
/// client spans, and from the server's own root span for server spans
/// (`clock` says which); `parent` 0 means a root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub request: u64,
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub clock: &'static str,
}

/// The four client-side phases of one round trip, in call order.
pub const CLIENT_PHASES: [&str; 4] = [
    "encode_request",
    "client_send",
    "client_wait",
    "decode_response",
];

/// One traced round trip as the raw client saw it.
#[derive(Debug, Clone, Copy)]
pub struct ClientRecord {
    pub request: u64,
    pub start_ns: u64,
    /// Durations of `CLIENT_PHASES`, nanoseconds.
    pub phases: [u64; 4],
    pub response_bytes: u32,
}

impl ClientRecord {
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().sum()
    }

    /// The record as spans: a `request` root (id 1) and one child per
    /// phase (ids 2..=5), back to back.
    pub fn spans(&self) -> Vec<Span> {
        let mut out = vec![Span {
            request: self.request,
            id: 1,
            parent: 0,
            name: "request".into(),
            start_ns: self.start_ns,
            end_ns: self.start_ns + self.total_ns(),
            clock: "run",
        }];
        let mut at = self.start_ns;
        for (i, (name, ns)) in CLIENT_PHASES.iter().zip(self.phases).enumerate() {
            out.push(Span {
                request: self.request,
                id: 2 + i as u64,
                parent: 1,
                name: (*name).into(),
                start_ns: at,
                end_ns: at + ns,
                clock: "run",
            });
            at += ns;
        }
        out
    }
}

/// One connection's span log. Request ids are `base + sequence`, so
/// two connections never collide and a server tree is matched to its
/// client record by id alone.
#[derive(Debug)]
pub struct ClientSpans {
    origin: Instant,
    base: u64,
    /// Requests issued so far (ids keep counting across `take_records`).
    issued: u64,
    records: Vec<ClientRecord>,
}

impl ClientSpans {
    /// `connection` must be unique within the run.
    pub fn new(origin: Instant, connection: u64) -> ClientSpans {
        ClientSpans {
            origin,
            base: (connection + 1) << 40,
            issued: 0,
            records: Vec::new(),
        }
    }

    pub fn next_request_id(&mut self) -> u64 {
        self.issued += 1;
        self.base + self.issued
    }

    /// `marks` are the instants before encode, after encode, after
    /// send, after the response frame arrived, after decode.
    pub fn record(&mut self, request: u64, marks: [Instant; 5], response_bytes: usize) {
        let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
        self.records.push(ClientRecord {
            request,
            start_ns: ns(self.origin, marks[0]),
            phases: [
                ns(marks[0], marks[1]),
                ns(marks[1], marks[2]),
                ns(marks[2], marks[3]),
                ns(marks[3], marks[4]),
            ],
            response_bytes: response_bytes as u32,
        });
    }

    pub fn take_records(&mut self) -> Vec<ClientRecord> {
        std::mem::take(&mut self.records)
    }
}

/// Self time per span of one request's spans (all on one clock):
/// duration minus the union of the children's intervals clipped to the
/// parent.
pub fn self_times(spans: &[Span]) -> Vec<(String, u64)> {
    spans
        .iter()
        .map(|span| {
            let mut children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == span.id && c.id != span.id)
                .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
                .filter(|(s, e)| e > s)
                .collect();
            children.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = span.start_ns;
            for (s, e) in children {
                let s = s.max(frontier);
                if e > s {
                    covered += e - s;
                    frontier = e;
                }
            }
            (
                span.name.clone(),
                (span.end_ns - span.start_ns).saturating_sub(covered),
            )
        })
        .collect()
}

/// Sums self times by span name over many requests.
#[derive(Debug, Default)]
pub struct SelfTimeTotals(BTreeMap<String, u64>);

impl SelfTimeTotals {
    /// Adds one request's spans; returns the sum of their self times.
    pub fn add_request(&mut self, spans: &[Span]) -> u64 {
        let mut sum = 0;
        for (name, ns) in self_times(spans) {
            *self.0.entry(name).or_default() += ns;
            sum += ns;
        }
        sum
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// Renders spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"request\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"clock\":\"{}\"}}",
            s.request, s.id, s.parent, s.name, s.start_ns, s.end_ns, s.clock
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            request: 7,
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
            clock: "run",
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 40),
            // Overlaps `a` by 10 and sticks 20 past the parent's end.
            span(3, 1, "b", 30, 120),
            span(4, 2, "leaf", 15, 20),
        ];
        let selfs: BTreeMap<_, _> = self_times(&spans).into_iter().collect();
        // Children cover [10, 100) of the root.
        assert_eq!(selfs["root"], 10);
        assert_eq!(selfs["a"], 25);
        assert_eq!(selfs["b"], 90);
        assert_eq!(selfs["leaf"], 5);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_its_root() {
        let record = ClientRecord {
            request: 9,
            start_ns: 1_000,
            phases: [5, 7, 11, 13],
            response_bytes: 2,
        };
        let spans = record.spans();
        let total: u64 = self_times(&spans).iter().map(|(_, ns)| ns).sum();
        assert_eq!(total, record.total_ns());
        assert_eq!(spans[0].end_ns - spans[0].start_ns, 36);
        let mut totals = SelfTimeTotals::default();
        assert_eq!(totals.add_request(&spans), 36);
        assert_eq!(totals.total_ns("request"), 0);
        assert_eq!(totals.total_ns("client_wait"), 11);
    }

    #[test]
    fn request_ids_are_disjoint_across_connections() {
        let origin = Instant::now();
        let mut a = ClientSpans::new(origin, 0);
        let mut b = ClientSpans::new(origin, 1);
        let first = a.next_request_id();
        assert_ne!(first, b.next_request_id());
        assert_eq!(first >> 40, 1);
        assert_eq!(a.next_request_id(), first + 1);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let text = to_jsonl(&[span(1, 0, "root", 0, 5)]);
        assert_eq!(
            text,
            "{\"request\":7,\"id\":1,\"parent\":0,\"name\":\"root\",\"start_ns\":0,\"end_ns\":5,\"clock\":\"run\"}\n"
        );
    }
}
