//! Inputs: which apps of the paper's 144-app benchset a run uses, seeded
//! Zipf app picks, and the verdicts the ground truth expects.

use backdroid_appgen::benchset::{
    bench_app, profiles_for, BenchsetConfig, Profile, MIN_CODE_SCALE,
};
use backdroid_appgen::workload::zipf_cumulative;
use backdroid_appgen::AndroidApp;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Size of the paper's benchmark set (§VI-A); every workload draws its
/// apps from it.
pub const PAPER_APPS: usize = 144;

/// A seeded RNG for one purpose of one run: distinct `tag`s give
/// independent streams from the same `--seed`.
pub fn rng(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Picks `count` apps of the 144-app set. The profile mix is the
/// canonical §VI-C one for `count` apps ([`profiles_for`]); `keep`
/// filters which profiles may appear. Within each profile the apps are
/// split into equal strata by APK size and the middle app of each
/// stratum is picked. The picks do not depend on the seed: a seed that
/// drew the apps moved every per-op figure by a fifth, more than a
/// regression bound, so the seed draws the order, the trace and the
/// mutations instead.
pub fn pick_apps(count: usize, keep: impl Fn(Profile) -> bool) -> Vec<usize> {
    // APK sizes do not depend on the code scale, so a minimal-scale
    // generation reads them cheaply.
    let tiny = BenchsetConfig::sized(PAPER_APPS, MIN_CODE_SCALE);
    let all: Vec<(usize, Profile, u64)> = (0..PAPER_APPS)
        .map(|i| {
            let ba = bench_app(i, tiny);
            (i, ba.profile, ba.app.resource_bytes)
        })
        .filter(|&(_, p, _)| keep(p))
        .collect();
    let mut wanted: Vec<Profile> = profiles_for(PAPER_APPS)
        .into_iter()
        .filter(|&p| keep(p))
        .collect();
    // The profile mix of `count` apps drawn proportionally from the kept
    // population: every k-th kept slot in canonical order.
    let stride = wanted.len() as f64 / count as f64;
    wanted = (0..count)
        .map(|k| wanted[((k as f64 + 0.5) * stride) as usize])
        .collect();
    let mut out = Vec::with_capacity(count);
    let mut profiles: Vec<Profile> = wanted.clone();
    profiles.dedup();
    for p in profiles {
        let need = wanted.iter().filter(|&&w| w == p).count();
        let mut pool: Vec<(usize, u64)> = all
            .iter()
            .filter(|&&(_, q, _)| q == p)
            .map(|&(i, _, size)| (i, size))
            .collect();
        pool.sort_by_key(|&(i, size)| (size, i));
        for s in 0..need {
            let lo = s * pool.len() / need;
            let hi = ((s + 1) * pool.len() / need).max(lo + 1);
            out.push(pool[(lo + hi) / 2].0);
        }
    }
    out
}

/// Every profile but the two timeout populations, whose apps carry 11x
/// the code of the rest. The serving and update workloads use these so
/// that their latencies do not hinge on how many giant apps a seed draws
/// or makes popular.
pub fn ordinary(p: Profile) -> bool {
    !matches!(p, Profile::TimeoutVictim | Profile::TimeoutNoVuln)
}

/// The sink ids, sorted, of the vulnerable sinks BackDroid's paper
/// configuration must report for `app`: every ground-truth path that is
/// a real vulnerability and that the default exact-signature sink search
/// can locate. The §VI-C subclassed-sink shape
/// (`backdroid_can_locate == false`) is the paper's documented miss, so
/// its expected answer is "not found".
pub fn expected_vulnerable(app: &AndroidApp) -> Vec<&str> {
    let mut ids: Vec<&str> = app
        .ground_truth
        .iter()
        .filter(|g| g.vulnerable() && g.backdroid_can_locate)
        .map(|g| g.sink_id.as_str())
        .collect();
    ids.sort_unstable();
    ids
}

/// Generates the picked apps at `code_scale` on `threads` workers.
pub fn generate(indices: &[usize], code_scale: f64, threads: usize) -> Vec<AndroidApp> {
    let cfg = BenchsetConfig::sized(PAPER_APPS, code_scale);
    backdroid_bench::par_map(indices.len(), threads, |k| bench_app(indices[k], cfg).app)
}

/// Seeded Zipf picks over `n` items (skew `s`), with the popularity
/// ranks assigned to items by a seeded shuffle.
pub struct Zipf {
    cum: Vec<f64>,
    rank_to_item: Vec<usize>,
}

impl Zipf {
    /// A Zipf distribution over `0..n` whose rank order `rng` shuffles.
    pub fn new(n: usize, s: f64, rng: &mut StdRng) -> Zipf {
        let mut rank_to_item: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            rank_to_item.swap(i, rng.gen_range(0..i + 1));
        }
        Zipf {
            cum: zipf_cumulative(n, s),
            rank_to_item,
        }
    }

    /// One pick.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let rank = self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1);
        self.rank_to_item[rank]
    }
}

/// Seconds until the next arrival of a Poisson process at `rate`/s.
pub fn exp_gap(rate: f64, rng: &mut StdRng) -> f64 {
    let u = ((rng.next_u64() >> 11) as f64 + 1.0) / ((1u64 << 53) as f64 + 1.0);
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_are_stratified_and_distinct() {
        let a = pick_apps(24, |_| true);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 24, "no app picked twice");
        let tiny = BenchsetConfig::sized(PAPER_APPS, MIN_CODE_SCALE);
        let picked = pick_apps(12, ordinary);
        assert!(picked.iter().all(|&i| ordinary(bench_app(i, tiny).profile)));
    }

    #[test]
    fn zipf_picks_stay_in_range() {
        let mut r = rng(5, 0);
        let z = Zipf::new(10, 1.0, &mut r);
        assert!((0..1000).all(|_| z.sample(&mut r) < 10));
        assert!((0..1000).all(|_| exp_gap(100.0, &mut r) > 0.0));
    }
}
