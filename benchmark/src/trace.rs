//! Spans recorded by the harness around its calls into the job layer, kept
//! in memory and written out as JSON lines when the run ends. Spans inside a
//! job (`job.queued`, `job.busy`, one per report phase) are synthetic: they
//! are laid out from the durations the job's `RunReport` carries, because
//! the program records no spans of its own yet.

use crate::json::Json;
use crate::workload::Unit;
use pmcmc_parallel::engine::RunReport;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Nanoseconds since the first call in this process; the trace's clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// When the harness submitted one job and got its result back.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobStamp {
    /// Just before the `submit`/`submit_batch` call that carried the job.
    pub submit_ns: u64,
    /// When that call returned.
    pub submitted_ns: u64,
    /// When the job's result was in the harness's hands.
    pub done_ns: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    /// Index of the job within its unit; spans of one job share it.
    pub job: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    pub fn add(
        &mut self,
        parent: Option<u32>,
        name: &str,
        job: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_owned(),
            job,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Closes a span that was opened before its end was known.
    pub fn end(&mut self, id: u32, end_ns: u64) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns.max(span.start_ns);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of it its children cover.
    pub fn self_ns(&self, id: u32) -> u64 {
        let Some(span) = self.spans.get(id as usize) else {
            return 0;
        };
        let children = self.spans.iter().filter(|s| s.parent == Some(id));
        uncovered_ns(
            span.start_ns,
            span.end_ns,
            children.map(|s| (s.start_ns, s.end_ns)).collect(),
        )
    }

    /// Span count, total and self nanoseconds per span name, by name.
    pub fn by_name(&self) -> Vec<(String, usize, u64, u64)> {
        let mut rows: std::collections::BTreeMap<&str, (usize, u64, u64)> = Default::default();
        for span in &self.spans {
            let row = rows.entry(&span.name).or_default();
            row.0 += 1;
            row.1 += span.end_ns - span.start_ns;
            row.2 += self.self_ns(span.id);
        }
        rows.into_iter()
            .map(|(name, (count, total, own))| (name.to_owned(), count, total, own))
            .collect()
    }

    /// Adds one traced unit under `parent`. The unit's children are the
    /// harness's own `job.submit` and
    /// `job.wait` calls (one pair per job, or one pair for a whole batch)
    /// and one `job` span per job, from its submission to its result, which
    /// holds the synthetic spans laid out from the job's report.
    pub fn add_unit(&mut self, parent: u32, unit: &Unit, is_batch: bool) {
        let unit_id = self.add(Some(parent), "unit", None, unit.start_ns, unit.end_ns);
        if let (true, Some(first)) = (is_batch, unit.stamps.first()) {
            self.add(
                Some(unit_id),
                "job.submit",
                None,
                first.submit_ns,
                first.submitted_ns,
            );
            self.add(
                Some(unit_id),
                "job.wait",
                None,
                first.submitted_ns,
                unit.end_ns,
            );
        }
        for (i, (stamp, result)) in unit.stamps.iter().zip(&unit.results).enumerate() {
            let job = Some(i as u64);
            if !is_batch {
                self.add(
                    Some(unit_id),
                    "job.submit",
                    job,
                    stamp.submit_ns,
                    stamp.submitted_ns,
                );
                self.add(
                    Some(unit_id),
                    "job.wait",
                    job,
                    stamp.submitted_ns,
                    stamp.done_ns,
                );
            }
            let job_id = self.add(Some(unit_id), "job", job, stamp.submit_ns, stamp.done_ns);
            if let Ok(report) = result {
                self.add_report(job_id, job, stamp.submit_ns, report);
            }
        }
    }

    /// Lays out `job.queued`, `job.busy` and the report's phases from
    /// `submit_ns` on. Phases are stacked in report order inside `job.busy`;
    /// a phase named `overhead` is part of the phase before it (periodic's
    /// `local` includes its duplicate/merge `overhead`) and nests there.
    fn add_report(&mut self, parent: u32, job: Option<u64>, submit_ns: u64, report: &RunReport) {
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let (queued, busy) = queued_busy(report);
        let busy_start = submit_ns + ns(queued);
        self.add(Some(parent), "job.queued", job, submit_ns, busy_start);
        let busy_id = self.add(
            Some(parent),
            "job.busy",
            job,
            busy_start,
            busy_start + ns(busy),
        );
        let mut cursor = busy_start;
        let mut previous: Option<(u32, u64)> = None;
        for phase in &report.phases {
            let name = format!("phase.{}", phase.phase);
            match previous {
                Some((id, start)) if phase.phase == "overhead" => {
                    self.add(Some(id), &name, job, start, start + ns(phase.duration));
                }
                _ => {
                    let end = cursor + ns(phase.duration);
                    previous = Some((self.add(Some(busy_id), &name, job, cursor, end), cursor));
                    cursor = end;
                }
            }
        }
    }

    /// One JSON object per span, one span per line.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let line = Json::obj([
                ("id", Json::Int(u64::from(s.id))),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(u64::from(p))),
                ),
                ("name", Json::str(&s.name)),
                ("job", s.job.map_or(Json::Null, Json::Int)),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
            ]);
            out.push_str(&line.line());
            out.push('\n');
        }
        out
    }
}

/// Queue wait and busy time of a job. A whole-job placement has one node
/// timing; were a job split, the slowest node bounds it.
pub fn queued_busy(report: &RunReport) -> (Duration, Duration) {
    let timings = report.node_timings.iter();
    timings.fold((Duration::ZERO, Duration::ZERO), |(q, b), t| {
        (q.max(t.queued), b.max(t.busy))
    })
}

/// Length of `[start, end]` that none of `intervals` covers. Intervals may
/// overlap each other and stick out of `[start, end]`; no part is counted
/// twice, and the part outside is not counted at all.
pub fn uncovered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (from, to) in intervals {
        let (from, to) = (from.clamp(start, end), to.clamp(start, end));
        covered += to.saturating_sub(from.max(reach));
        reach = reach.max(to);
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::default();
        let root = t.add(None, "unit", None, 100, 200);
        t.add(Some(root), "a", None, 110, 130);
        t.add(Some(root), "b", None, 120, 150); // overlaps a
        t.add(Some(root), "c", None, 190, 260); // sticks out of the parent
        let leaf = t.add(Some(root), "d", None, 150, 150);
        // Covered: [110,150] and [190,200] = 50 of 100.
        assert_eq!(t.self_ns(root), 50);
        assert_eq!(t.self_ns(leaf), 0);
        assert_eq!(t.self_ns(99), 0);
    }

    #[test]
    fn jsonl_has_one_object_per_line_with_null_for_absent_links() {
        let mut t = Trace::default();
        let root = t.add(None, "workload", None, 0, 10);
        t.add(Some(root), "job", Some(3), 2, 5);
        let text = t.jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"id\":0,\"parent\":null,\"name\":\"workload\",\"job\":null,\"start_ns\":0,\"end_ns\":10}"
        );
        assert_eq!(
            lines[1],
            "{\"id\":1,\"parent\":0,\"name\":\"job\",\"job\":3,\"start_ns\":2,\"end_ns\":5}"
        );
    }

    #[test]
    fn a_span_never_ends_before_it_starts() {
        let mut t = Trace::default();
        let id = t.add(None, "x", None, 50, 40);
        assert_eq!(t.spans()[id as usize].end_ns, 50);
    }
}
