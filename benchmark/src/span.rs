//! Spans of the traced pass: recorded in memory around every call into a
//! layer, written out as JSONL when the run ends.
//!
//! The pass runs on one thread, so spans nest strictly: a span's children
//! lie inside it and do not overlap each other.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// The layer (crate/module) name, or a grouping name (`pass`, `shard`,
    /// `scenario`) for spans that only hold others.
    pub name: &'static str,
    /// The scenario index this span worked for, if it is part of one.
    pub scenario: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `body` inside a new span, child of the innermost open one.
    /// `body` gets the tracer back to open spans of its own.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        scenario: Option<usize>,
        body: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            scenario,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let value = body(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        value
    }

    /// A span around one call that opens no spans itself.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        scenario: Option<usize>,
        body: impl FnOnce() -> T,
    ) -> T {
        self.span(name, scenario, |_| body())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus what its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Total self time, in seconds, of the spans called `name`.
pub fn layer_self_s(spans: &[Span], own: &[u64], name: &str) -> f64 {
    spans
        .iter()
        .zip(own)
        .filter(|(span, _)| span.name == name)
        .map(|(_, &ns)| ns)
        .sum::<u64>() as f64
        / 1e9
}

pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"scenario\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            opt(s.parent),
            s.name,
            opt(s.scenario),
            s.start_ns,
            s.end_ns
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy() {
        std::hint::black_box((0..20_000u64).sum::<u64>());
    }

    #[test]
    fn self_times_never_exceed_the_parent_and_sum_to_the_root() {
        let mut t = Tracer::new();
        t.span("pass", None, |t| {
            busy();
            for i in 0..3 {
                t.span("scenario", Some(i), |t| {
                    t.call("a", Some(i), busy);
                    busy();
                    t.call("b", Some(i), busy);
                });
            }
            t.call("c", None, busy);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 1 + 3 * 3 + 1);
        assert_eq!(spans[0].parent, None);
        assert!(spans[1..].iter().all(|s| s.parent.is_some()));
        for s in spans {
            let children: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(Span::duration_ns)
                .sum();
            assert!(
                children <= s.duration_ns(),
                "children outlast span {}",
                s.id
            );
            if let Some(p) = s.parent {
                assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
            }
        }
        let own = self_times_ns(spans);
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
        assert_eq!(
            layer_self_s(spans, &own, "a"),
            spans
                .iter()
                .filter(|s| s.name == "a")
                .map(Span::duration_ns)
                .sum::<u64>() as f64
                / 1e9
        );
        assert_eq!(to_jsonl(spans).lines().count(), spans.len());
        assert!(to_jsonl(spans).starts_with(
            "{\"id\":0,\"parent\":null,\"name\":\"pass\",\"scenario\":null,\"start_ns\":"
        ));
    }
}
