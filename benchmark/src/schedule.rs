//! Seeded input generation for every workload.
//!
//! Everything a timed window consumes is produced here, *before* the
//! window opens, from `--seed` alone: the library under test only ever
//! sees generated inputs. The generator is the harness's own (SplitMix64
//! plus a precomputed Zipf CDF sampled by binary search) so that neither
//! the world's RNG stream nor `Rng::gen_zipf` — O(n) `powf` per draw —
//! sits inside a measurement. Each schedule carries an FNV-1a digest of
//! its contents; the smoke tests pin it for seed 1.

use std::collections::HashSet;

/// SplitMix64 (Steele, Lea & Flood): one `u64` of state, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// An independent stream for one purpose (`label`) under `seed`, so
    /// that adding a draw to one schedule never shifts another.
    pub fn stream(seed: u64, label: &str) -> SplitMix64 {
        let mut fnv = Fnv64::new();
        fnv.write(label.as_bytes());
        let mut rng = SplitMix64(seed ^ fnv.finish());
        // One step of mixing so that adjacent seeds do not share a prefix.
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻³² for the
    /// population sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n` (rank 0 the hottest): the CDF is computed
/// once, a draw is one uniform plus a binary search.
#[derive(Debug, Clone)]
pub struct ZipfCdf {
    cdf: Vec<f64>,
}

impl ZipfCdf {
    /// Precomputes the CDF for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> ZipfCdf {
        assert!(n > 0, "empty population");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        ZipfCdf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit_f64();
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// FNV-1a, 64 bit: the digest of schedules and outcome streams. Kept
/// local so that a digest never depends on library code under test.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(0xCBF2_9CE4_8422_2325)
    }

    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds one integer in (little endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

// ------------------------------------------------------------------ waves

/// The access traffic of the three market workloads: per wave, `width`
/// distinct (device index, resource rank) pairs — devices uniform over the
/// fleet, resources Zipf(1.1) over popularity ranks.
#[derive(Debug, Clone)]
pub struct WaveSchedule {
    /// One entry per wave, in submission order.
    pub waves: Vec<Vec<(u32, u32)>>,
}

/// Zipf exponent of resource popularity (the E15 default).
pub const ZIPF_S: f64 = 1.1;

impl WaveSchedule {
    /// Generates `waves` waves of `width` pairs over `devices` × `resources`.
    ///
    /// Waves are drawn sequentially from one stream, so a schedule with
    /// fewer waves is a prefix of a longer one under the same seed — which
    /// is what lets `paged_access` be compared against `market_access`.
    pub fn generate(
        seed: u64,
        devices: usize,
        resources: usize,
        waves: usize,
        width: usize,
    ) -> WaveSchedule {
        assert!(
            width <= devices.saturating_mul(resources),
            "more distinct pairs per wave than exist"
        );
        let mut rng = SplitMix64::stream(seed, "waves");
        let zipf = ZipfCdf::new(resources, ZIPF_S);
        let mut out = Vec::with_capacity(waves);
        for _ in 0..waves {
            let mut seen = HashSet::with_capacity(width);
            let mut wave = Vec::with_capacity(width);
            while wave.len() < width {
                let pair = (rng.below(devices) as u32, zipf.sample(&mut rng) as u32);
                if seen.insert(pair) {
                    wave.push(pair);
                }
            }
            out.push(wave);
        }
        WaveSchedule { waves: out }
    }

    /// Digest over every pair in order.
    pub fn digest(&self) -> u64 {
        let mut fnv = Fnv64::new();
        for wave in &self.waves {
            fnv.write_u64(wave.len() as u64);
            for (dev, rank) in wave {
                fnv.write_u64(u64::from(*dev) << 32 | u64::from(*rank));
            }
        }
        fnv.finish()
    }
}

// ----------------------------------------------------------- chain ingest

/// Inputs of `chain_ingest`: resource names per write block and the view
/// targets read back after each block.
#[derive(Debug, Clone)]
pub struct IngestSchedule {
    /// Resource suffixes registered in the set-up block (one per sender):
    /// the first `update_policy` block's targets.
    pub seed_suffixes: Vec<u64>,
    /// Per in-window block.
    pub blocks: Vec<IngestBlock>,
}

/// What one in-window block of `chain_ingest` does.
#[derive(Debug, Clone)]
pub enum IngestBlockKind {
    /// Every sender registers a fresh resource (disjoint inserts); one
    /// name suffix per sender.
    Register(Vec<u64>),
    /// Every sender replaces the policy of the resource it registered in
    /// the previous group's last register block (overwrites plus events).
    Update,
}

/// One in-window block plus the reads that follow it.
#[derive(Debug, Clone)]
pub struct IngestBlock {
    /// How far into the block interval the batch is submitted, in
    /// simulated nanoseconds: a seeded permutation of an even grid over
    /// the first 1.9 s of the 2 s slot, plus a small seeded jitter — so
    /// every seed sees the same latency *distribution* (its percentiles
    /// move by a fraction of a grid cell) in a different order.
    pub submit_offset_ns: u64,
    /// The writes.
    pub kind: IngestBlockKind,
    /// `lookup_resource` targets after the block seals, as indices into
    /// the list of every resource registered so far (set-up block first,
    /// then register blocks in order, senders in order within a block).
    pub views: Vec<u32>,
}

/// The part of the 2 s block interval submissions are spread over.
const SUBMIT_SPAN_NS: u64 = 1_900_000_000;

/// Register blocks per group; each group ends with one update block.
pub const INGEST_REGISTERS_PER_GROUP: usize = 3;

impl IngestSchedule {
    /// Generates `blocks` in-window blocks for `senders` senders.
    pub fn generate(seed: u64, senders: usize, blocks: usize) -> IngestSchedule {
        let mut rng = SplitMix64::stream(seed, "ingest");
        let seed_suffixes: Vec<u64> = (0..senders).map(|_| rng.next_u64() >> 32).collect();
        let mut registered = senders;
        let mut out = Vec::with_capacity(blocks);
        let mut grid: Vec<u64> = (0..blocks as u64).collect();
        rng.shuffle(&mut grid);
        let cell_ns = SUBMIT_SPAN_NS / blocks.max(1) as u64;
        for (b, cell) in grid.into_iter().enumerate() {
            let kind = if b % (INGEST_REGISTERS_PER_GROUP + 1) < INGEST_REGISTERS_PER_GROUP {
                registered += senders;
                IngestBlockKind::Register((0..senders).map(|_| rng.next_u64() >> 32).collect())
            } else {
                IngestBlockKind::Update
            };
            let views = (0..senders).map(|_| rng.below(registered) as u32).collect();
            out.push(IngestBlock {
                submit_offset_ns: cell * cell_ns + rng.below((cell_ns / 10).max(1) as usize) as u64,
                kind,
                views,
            });
        }
        IngestSchedule {
            seed_suffixes,
            blocks: out,
        }
    }

    /// Digest over every name suffix and view target in order.
    pub fn digest(&self) -> u64 {
        let mut fnv = Fnv64::new();
        for s in &self.seed_suffixes {
            fnv.write_u64(*s);
        }
        for block in &self.blocks {
            fnv.write_u64(block.submit_offset_ns);
            match &block.kind {
                IngestBlockKind::Register(suffixes) => {
                    fnv.write_u64(1);
                    for s in suffixes {
                        fnv.write_u64(*s);
                    }
                }
                IngestBlockKind::Update => fnv.write_u64(2),
            }
            for v in &block.views {
                fnv.write_u64(u64::from(*v));
            }
        }
        fnv.finish()
    }
}

// -------------------------------------------------------------- lifecycle

/// Inputs of `lifecycle_mix`: per round, a fresh resource per owner and a
/// seeded assignment of devices to this round's resources.
#[derive(Debug, Clone)]
pub struct LifecycleSchedule {
    /// One entry per round.
    pub rounds: Vec<LifecycleRound>,
}

/// One round of `lifecycle_mix`.
#[derive(Debug, Clone)]
pub struct LifecycleRound {
    /// Fill byte of each owner's new resource body this round.
    pub body_fill: Vec<u8>,
    /// `holders[o]` are the device indices that index and access owner
    /// `o`'s new resource (a partition of the fleet).
    pub holders: Vec<Vec<u32>>,
}

impl LifecycleSchedule {
    /// Generates `rounds` rounds for `owners` owners and `devices` devices
    /// (`devices` must be a multiple of `owners`).
    pub fn generate(seed: u64, owners: usize, devices: usize, rounds: usize) -> LifecycleSchedule {
        assert!(
            owners > 0 && devices.is_multiple_of(owners),
            "fleet must split evenly"
        );
        let per_owner = devices / owners;
        let mut rng = SplitMix64::stream(seed, "lifecycle");
        let mut out = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let body_fill = (0..owners).map(|_| rng.next_u64() as u8).collect();
            let mut fleet: Vec<u32> = (0..devices as u32).collect();
            rng.shuffle(&mut fleet);
            let holders = fleet.chunks(per_owner).map(<[u32]>::to_vec).collect();
            out.push(LifecycleRound { body_fill, holders });
        }
        LifecycleSchedule { rounds: out }
    }

    /// Digest over every fill byte and assignment in order.
    pub fn digest(&self) -> u64 {
        let mut fnv = Fnv64::new();
        for round in &self.rounds {
            fnv.write(&round.body_fill);
            for group in &round.holders {
                for d in group {
                    fnv.write_u64(u64::from(*d));
                }
            }
        }
        fnv.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_reference_vector() {
        // First outputs for seed 1234567 from the reference C
        // implementation (Vigna, prng.di.unimi.it/splitmix64.c).
        let mut rng = SplitMix64::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = ZipfCdf::new(1_000, ZIPF_S);
        let mut rng = SplitMix64::new(7);
        let mut hits = vec![0u32; 1_000];
        for _ in 0..100_000 {
            hits[zipf.sample(&mut rng)] += 1;
        }
        // H(1000, 1.1) ≈ 5.58, so rank 0 carries ≈ 17.9 % of the mass.
        assert!((16_000..20_000).contains(&hits[0]), "rank 0: {}", hits[0]);
        assert!(hits[0] > hits[1] && hits[1] > hits[9] && hits[9] > hits[99]);
    }

    #[test]
    fn wave_schedule_digest_is_pinned_for_seed_1_and_moves_with_the_seed() {
        let one = WaveSchedule::generate(1, 1_000, 1_000, 400, 128);
        assert_eq!(one.digest(), WAVES_SEED_1);
        assert_ne!(
            WaveSchedule::generate(2, 1_000, 1_000, 400, 128).digest(),
            one.digest()
        );
        // Prefix property: fewer waves under the same seed is a prefix.
        let prefix = WaveSchedule::generate(1, 1_000, 1_000, 150, 128);
        assert_eq!(prefix.waves[..], one.waves[..150]);
        for wave in &one.waves {
            let distinct: HashSet<_> = wave.iter().collect();
            assert_eq!(distinct.len(), 128, "pairs within a wave are distinct");
        }
    }

    #[test]
    fn ingest_and_lifecycle_digests_are_pinned_for_seed_1_and_move_with_the_seed() {
        let ingest = IngestSchedule::generate(1, 256, 400);
        assert_eq!(ingest.digest(), INGEST_SEED_1);
        assert_ne!(
            IngestSchedule::generate(2, 256, 400).digest(),
            INGEST_SEED_1
        );
        let updates = ingest
            .blocks
            .iter()
            .filter(|b| matches!(b.kind, IngestBlockKind::Update))
            .count();
        assert_eq!(updates, 100, "one update block per group of four");

        let life = LifecycleSchedule::generate(1, 16, 128, 40);
        assert_eq!(life.digest(), LIFECYCLE_SEED_1);
        assert_ne!(
            LifecycleSchedule::generate(2, 16, 128, 40).digest(),
            LIFECYCLE_SEED_1
        );
        for round in &life.rounds {
            let mut all: Vec<u32> = round.holders.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..128).collect::<Vec<u32>>(), "a partition");
        }
    }

    const WAVES_SEED_1: u64 = 14_639_245_935_229_851_280;
    const INGEST_SEED_1: u64 = 352_107_847_412_231_452;
    const LIFECYCLE_SEED_1: u64 = 12_922_324_605_088_004_291;
}
