//! Output checks: every job of every unit is checked against its inputs, and
//! the units of a run against each other.

use crate::workload::{Rig, Unit, Workload};
use pmcmc_core::{match_circles, NucleiModel};
use pmcmc_imaging::Circle;

/// Detections within this many pixels of a true centre count as found.
const MATCH_DIST: f64 = 5.0;

/// F1 of `detected` against the true circles.
pub fn f1(truth: &[Circle], detected: &[Circle]) -> f64 {
    match_circles(truth, detected, MATCH_DIST).f1()
}

/// FNV-1a over the bit patterns of every job's detections in report order.
/// Each job contributes its detection count first, so moving a circle from
/// one job to the next changes the digest as well.
pub fn digest<'a>(jobs: impl IntoIterator<Item = &'a [Circle]>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for circles in jobs {
        feed(circles.len() as u64);
        for c in circles {
            feed(c.x.to_bits());
            feed(c.y.to_bits());
            feed(c.r.to_bits());
        }
    }
    hash
}

/// What checking one unit found.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitCheck {
    pub jobs: usize,
    pub failed_jobs: usize,
    /// Mean F1 against ground truth over the jobs that returned a report.
    pub f1: f64,
    pub digest: u64,
    /// One line per failed check, for the log.
    pub problems: Vec<String>,
}

/// Checks units against models it builds itself from the jobs' inputs. The
/// model of the scene checked last is kept: a workload with one scene gets
/// one model for the whole run, held from the first check on, so that the
/// harness's own memory is a constant under the program's peak and not a
/// 16 MB allocation that comes and goes between the units.
#[derive(Default)]
pub struct Checker {
    model: Option<(usize, NucleiModel)>,
}

impl Checker {
    /// Checks every job of `unit`: it returned `Ok`, ran its whole budget (a
    /// partitioned scheme's budget is a per-partition cap, so it only has to
    /// have run), and its final configuration is consistent with a model
    /// built from the job's own image and parameters.
    pub fn check_unit(&mut self, rig: &Rig, unit: &Unit) -> UnitCheck {
        let mut problems = Vec::new();
        let mut failed_jobs = 0;
        let mut f1_sum = 0.0;
        let mut reported = 0usize;
        for (i, (job, result)) in rig.plan.iter().zip(&unit.results).enumerate() {
            let report = match result {
                Ok(report) => report,
                Err(e) => {
                    failed_jobs += 1;
                    problems.push(format!("job {i} ({}): {e}", job.strategy));
                    continue;
                }
            };
            let scene = &rig.scenes[job.scene];
            if self.model.as_ref().map(|(idx, _)| *idx) != Some(job.scene) {
                let model = NucleiModel::new(&scene.image, scene.params.clone());
                self.model = Some((job.scene, model));
            }
            let (_, model) = self.model.as_ref().expect("built just above");
            let needed = if report.validity.is_exact() {
                job.iterations
            } else {
                1
            };
            let mut ok = true;
            if report.iterations < needed {
                ok = false;
                problems.push(format!(
                    "job {i} ({}): ran {} of {needed} iterations",
                    job.strategy, report.iterations
                ));
            }
            if let Err(e) = report.config.verify_consistency(model) {
                ok = false;
                problems.push(format!(
                    "job {i} ({}): inconsistent configuration: {e}",
                    job.strategy
                ));
            }
            failed_jobs += usize::from(!ok);
            f1_sum += f1(&scene.truth, report.detected());
            reported += 1;
        }
        UnitCheck {
            jobs: rig.plan.len(),
            failed_jobs,
            f1: if reported == 0 {
                0.0
            } else {
                f1_sum / reported as f64
            },
            digest: digest(
                unit.results
                    .iter()
                    .map(|r| r.as_ref().map_or(&[][..], |report| report.detected())),
            ),
            problems,
        }
    }
}

/// Checks the units of one run against each other and against the
/// workload's F1 floor. Every unit ran the same jobs on the same inputs, so
/// detections, and with them F1, must repeat exactly.
pub fn check_run(workload: Workload, units: &[UnitCheck]) -> Vec<String> {
    let mut problems: Vec<String> = units.iter().flat_map(|u| u.problems.clone()).collect();
    let Some(first) = units.first() else {
        problems.push("no unit was run".to_owned());
        return problems;
    };
    for (i, unit) in units.iter().enumerate().skip(1) {
        if unit.digest != first.digest {
            problems.push(format!(
                "unit {i} detected {:016x}, unit 0 detected {:016x}: same inputs, different output",
                unit.digest, first.digest
            ));
        }
    }
    if first.f1 < workload.f1_floor() {
        problems.push(format!(
            "f1 {:.4} is below the floor {:.2} of {}",
            first.f1,
            workload.f1_floor(),
            workload.name()
        ));
    }
    problems
}

/// The three batch workloads run the same jobs, so for one seed their
/// digests must be one value. `digests` holds (workload name, digest).
pub fn check_batch_digests(digests: &[(&str, u64)]) -> Vec<String> {
    let batch: Vec<&(&str, u64)> = digests
        .iter()
        .filter(|(name, _)| Workload::from_name(name).is_some_and(Workload::is_batch))
        .collect();
    batch
        .windows(2)
        .filter(|pair| pair[0].1 != pair[1].1)
        .map(|pair| {
            format!(
                "{} detected {:016x} but {} detected {:016x}: backends disagree",
                pair[0].0, pair[0].1, pair[1].0, pair[1].1
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn circles() -> Vec<Circle> {
        vec![Circle::new(1.0, 2.0, 3.0), Circle::new(4.0, 5.0, 6.0)]
    }

    #[test]
    fn digest_is_sensitive_to_order_bits_and_job_boundaries() {
        let a = circles();
        let base = digest([&a[..]]);
        assert_eq!(base, digest([&circles()[..]]));
        let swapped = [a[1], a[0]];
        assert_ne!(base, digest([&swapped[..]]));
        let mut nudged = circles();
        nudged[0].x = f64::from_bits(nudged[0].x.to_bits() + 1);
        assert_ne!(base, digest([&nudged[..]]));
        // -0.0 == 0.0 as numbers, but not as a detection digest.
        let (pos, neg) = ([Circle::new(0.0, 1.0, 1.0)], [Circle::new(-0.0, 1.0, 1.0)]);
        assert_ne!(digest([&pos[..]]), digest([&neg[..]]));
        // The same circles split over two jobs differently.
        assert_ne!(digest([&a[..1], &a[1..]]), digest([&a[..], &[][..]]));
        assert_ne!(digest([&a[..]]), digest([&a[..], &[][..]]));
    }

    fn unit(digest: u64, f1: f64) -> UnitCheck {
        UnitCheck {
            jobs: 1,
            failed_jobs: 0,
            f1,
            digest,
            problems: vec![],
        }
    }

    #[test]
    fn a_wrong_digest_in_one_repeat_fails_the_run() {
        let w = Workload::DenseSequential;
        assert!(check_run(w, &[unit(7, 0.95), unit(7, 0.95)]).is_empty());
        let problems = check_run(w, &[unit(7, 0.95), unit(8, 0.95), unit(7, 0.95)]);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("unit 1"), "{problems:?}");
    }

    #[test]
    fn f1_below_the_floor_and_an_empty_run_fail() {
        let w = Workload::BatchSmallLocal;
        assert_eq!(check_run(w, &[unit(1, w.f1_floor() - 0.01)]).len(), 1);
        assert_eq!(check_run(w, &[]).len(), 1);
        let mut failed = unit(1, 0.95);
        failed.problems.push("job 3: cancelled".to_owned());
        assert_eq!(check_run(w, &[failed]), vec!["job 3: cancelled".to_owned()]);
    }

    #[test]
    fn batch_backends_must_agree_and_dense_workloads_are_not_compared() {
        let agree = [
            ("dense_sequential", 1),
            ("batch_small_local", 5),
            ("batch_small_sharded", 5),
            ("batch_small_distributed", 5),
        ];
        assert!(check_batch_digests(&agree).is_empty());
        let mut wrong = agree;
        wrong[3].1 = 6;
        let problems = check_batch_digests(&wrong);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("batch_small_distributed"));
    }
}
