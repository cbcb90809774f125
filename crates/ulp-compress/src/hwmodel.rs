//! The SmartDIMM Deflate DSA model (§V-B).
//!
//! A specialized adaptation of the fully pipelined FPGA compressor of
//! Fowers et al., with the paper's design choices:
//!
//! * data is consumed in 64-byte cachelines, one per buffer-device clock
//!   cycle, subdivided into *parallelization windows* (default 8 bytes)
//!   for the match-selection logic;
//! * the candidate store is an 8-bank Config-Memory array; when more
//!   lookups map to one bank in a cycle than it has ports, the excess
//!   candidates are *discarded* (best-effort matching);
//! * the hash table covers a 4 KB history window; inserting into an
//!   occupied slot replaces the oldest entry;
//! * match lengths are capped at twice the parallelization window (the
//!   width of the hardware comparator array), so enlarging the window
//!   marginally improves the compression ratio while the comparator and
//!   memory cost grows quadratically — exactly the trade-off §V-B
//!   describes;
//! * output uses fixed-Huffman encoding (no second pass over the data,
//!   deterministic latency) with a stored-block fallback so a page never
//!   expands past `input + 5` bytes;
//! * compression happens at 4 KB page granularity only; larger messages
//!   take one CompCpy call per page (§V-C).
//!
//! Every output page is a valid Deflate stream decodable by
//! [`crate::inflate`].

use crate::bitio::BitWriter;
use crate::deflate::{
    encode_tokens, stored_stream, write_fixed_header, write_fixed_match, write_fixed_symbol,
    Strategy, END_OF_BLOCK,
};
use crate::lz77::{load8, Token, MAX_MATCH, MIN_MATCH};

/// Deflate-DSA configuration. Defaults mirror the paper's prototype.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwDeflateConfig {
    /// Parallelization window in bytes (paper: 8).
    pub window: usize,
    /// Number of Config-Memory banks (paper: 8).
    pub banks: usize,
    /// Hash-table slots per bank (paper: sized to cover a 4 KB window).
    pub entries_per_bank: usize,
    /// Read/write port pairs per bank and cycle (paper: 8); accesses
    /// beyond the port count in a cycle are dropped (best-effort).
    pub ports_per_bank: usize,
    /// History window in bytes (paper: 4 KB).
    pub history: usize,
}

impl Default for HwDeflateConfig {
    fn default() -> Self {
        HwDeflateConfig {
            window: 8,
            banks: 8,
            entries_per_bank: 512,
            ports_per_bank: 8,
            history: 4096,
        }
    }
}

impl HwDeflateConfig {
    /// Maximum match length the comparator array can confirm: twice the
    /// parallelization window, clamped to Deflate's limits.
    pub fn max_match(&self) -> usize {
        (self.window * 2).clamp(MIN_MATCH, MAX_MATCH)
    }

    /// Candidate-store size in bits, the §V-B "memory requirement" that
    /// grows with the window (wider comparators need wider candidate
    /// reads). Used by the area/power model and the window ablation.
    pub fn candidate_memory_bits(&self) -> usize {
        // Each slot stores a position tag (16 bits) plus the candidate
        // bytes the comparators need (2 * window bytes).
        self.banks * self.entries_per_bank * (16 + 16 * self.window)
    }
}

/// Counters exposed by the DSA model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HwStats {
    /// Cycles spent in the match pipeline (one per 64-byte cacheline).
    pub cycles: u64,
    /// Candidate lookups dropped because a bank ran out of read ports.
    pub lookups_dropped: u64,
    /// Hash-table inserts dropped because a bank ran out of write ports.
    pub inserts_dropped: u64,
    /// Matches emitted.
    pub matches_emitted: u64,
    /// Literals emitted.
    pub literals_emitted: u64,
    /// Pages that fell back to a stored block.
    pub stored_fallbacks: u64,
}

/// Result of compressing one 4 KB page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageResult {
    /// The Deflate stream for this page.
    pub data: Vec<u8>,
    /// Whether the fixed-Huffman encoding lost to the stored fallback.
    pub stored: bool,
    /// Buffer-device cycles consumed (deterministic: one per cacheline).
    pub cycles: u64,
}

/// The Deflate DSA: hardware-model compressor.
///
/// # Example
///
/// ```
/// use ulp_compress::hwmodel::HwCompressor;
/// use ulp_compress::inflate;
///
/// let mut dsa = HwCompressor::new(Default::default());
/// let page = b"near-memory processing near-memory processing!!!".repeat(20);
/// let result = dsa.compress_page(&page[..page.len().min(4096)]);
/// assert!(result.data.len() < page.len().min(4096));
/// assert_eq!(inflate::decompress(&result.data).unwrap(), &page[..page.len().min(4096)]);
/// ```
#[derive(Debug, Clone)]
pub struct HwCompressor {
    config: HwDeflateConfig,
    stats: HwStats,
}

const PAGE: usize = 4096;
const CACHELINE: usize = 64;

impl HwCompressor {
    /// Creates a compressor with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if any configuration field is zero.
    pub fn new(config: HwDeflateConfig) -> HwCompressor {
        assert!(config.window > 0, "window must be positive");
        assert!(config.banks > 0, "banks must be positive");
        assert!(config.entries_per_bank > 0, "entries must be positive");
        assert!(config.ports_per_bank > 0, "ports must be positive");
        assert!(config.history >= config.max_match(), "history too small");
        HwCompressor {
            config,
            stats: HwStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &HwDeflateConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> HwStats {
        self.stats
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = HwStats::default();
    }

    /// Compresses one page (at most 4 KB) into an independent Deflate
    /// stream, exactly as one CompCpy offload does.
    ///
    /// The tokenizer writes fixed-Huffman bits as it selects each token;
    /// [`HwCompressor::compress_page_ref`] is the token-vector oracle it
    /// must match bit for bit, in output, cycles and [`HwStats`].
    ///
    /// # Panics
    ///
    /// Panics if `page` is empty or longer than 4 KB.
    pub fn compress_page(&mut self, page: &[u8]) -> PageResult {
        assert!(!page.is_empty(), "empty page");
        assert!(page.len() <= PAGE, "DSA compresses at 4KB page granularity");
        let mut w = BitWriter::with_capacity(page.len() + 8);
        write_fixed_header(&mut w, true);
        self.encode_page(page, &mut w);
        write_fixed_symbol(&mut w, END_OF_BLOCK);
        self.finish_page(page, w.finish())
    }

    /// Reference [`HwCompressor::compress_page`]: the tokenizer builds a
    /// [`Token`] vector that [`encode_tokens`] lowers afterwards. Kept as
    /// the differential oracle of the fused kernel; not for hot paths.
    ///
    /// # Panics
    ///
    /// Panics if `page` is empty or longer than 4 KB.
    pub fn compress_page_ref(&mut self, page: &[u8]) -> PageResult {
        assert!(!page.is_empty(), "empty page");
        assert!(page.len() <= PAGE, "DSA compresses at 4KB page granularity");
        let tokens = self.tokenize_page_ref(page);
        let fixed = encode_tokens(&tokens, page, Strategy::Fixed);
        self.finish_page(page, fixed)
    }

    /// Charges the page's cycles and applies the stored fallback, which
    /// keeps the compressed page within the registered destination pages.
    fn finish_page(&mut self, page: &[u8], fixed: Vec<u8>) -> PageResult {
        let cycles = page.len().div_ceil(CACHELINE) as u64;
        self.stats.cycles += cycles;
        let (data, stored) = if fixed.len() >= page.len() + 5 {
            self.stats.stored_fallbacks += 1;
            (stored_stream(page), true)
        } else {
            (fixed, false)
        };
        PageResult {
            data,
            stored,
            cycles,
        }
    }

    /// Compresses an arbitrary message as a sequence of independent 4 KB
    /// page streams (the §V-C software-stack contract: each page is
    /// written to the TCP socket separately).
    pub fn compress_message(&mut self, data: &[u8]) -> Vec<PageResult> {
        data.chunks(PAGE).map(|p| self.compress_page(p)).collect()
    }

    /// The best-effort banked-hash-table tokenizer of
    /// [`HwCompressor::tokenize_page_ref`], writing each token's
    /// fixed-Huffman bits to `w` as soon as it is selected.
    ///
    /// Same model, cheaper host arithmetic. Each 64-byte line runs in
    /// stages, as the hardware pipeline does:
    /// 1. hash every lane straight to its slot and bank with
    ///    [`HashParts`] instead of two divisions (the bank of
    ///    `h % slots` is `h % banks`, because `banks` divides `slots`);
    /// 2. arbitrate the bank ports and access the candidate table without
    ///    branches. A lane reads its candidate and inserts itself in one
    ///    step, so one counter per bank serves both port kinds, and a
    ///    lane that gets no port does neither. The table holds
    ///    `position + 1` in a `u16` (0 = empty) and covers only the slots
    ///    a 3-byte hash can reach;
    /// 3. select tokens for the lanes no earlier match covers. Matches
    ///    compare eight bytes per step over a zero-padded copy of the
    ///    page, and the table candidate is not compared once the
    ///    neighbour reaches the length cap (ties go to the neighbour).
    fn encode_page(&mut self, page: &[u8], w: &mut BitWriter) {
        let cfg = self.config;
        let n = page.len();
        let max_match = cfg.max_match();
        let hash = HashParts::new(cfg.banks * cfg.entries_per_bank, cfg.banks);
        // A line has 64 lanes, so more ports than that never bind.
        let ports = cfg.ports_per_bank.min(CACHELINE) as u32;
        let mut table = vec![0u16; hash.slots as usize];
        let mut used = vec![0u32; hash.banks as usize];
        let mut buf = [0u8; PAGE + 8];
        buf[..n].copy_from_slice(page);
        let mut stats = self.stats;
        // Positions from here on have fewer than MIN_MATCH bytes left:
        // no lookup, a literal unless a match covers them.
        let hashed_end = n.saturating_sub(MIN_MATCH - 1);
        let mut covered_until = 0usize;
        let mut slot_of = [0u32; CACHELINE];
        let mut bank_of = [0u32; CACHELINE];
        let mut cand_of = [0u16; CACHELINE];
        for start in (0..n).step_by(CACHELINE) {
            let end = (start + CACHELINE).min(n);
            let lanes = end.min(hashed_end).saturating_sub(start);
            for i in 0..lanes {
                (slot_of[i], bank_of[i]) = hash.slot_bank(&buf, start + i);
            }
            let mut granted = 0u64;
            for i in 0..lanes {
                let port = &mut used[bank_of[i] as usize];
                let g = *port < ports;
                *port += g as u32;
                let slot = &mut table[slot_of[i] as usize];
                cand_of[i] = if g { *slot } else { 0 };
                *slot = if g { (start + i) as u16 + 1 } else { *slot };
                granted += g as u64;
            }
            for &b in &bank_of[..lanes] {
                used[b as usize] = 0;
            }
            stats.lookups_dropped += lanes as u64 - granted;
            stats.inserts_dropped += lanes as u64 - granted;

            let mut p = start.max(covered_until);
            while p < start + lanes {
                let limit = (n - p).min(max_match);
                // The adjacent lane (distance 1) costs no port.
                let run = if p >= 1 {
                    prefix_len(&buf, p - 1, p, limit)
                } else {
                    0
                };
                let mut best = (if run >= MIN_MATCH { run } else { 0 }, 1);
                let cand = cand_of[p - start] as usize;
                if cand != 0 && run < limit && p + 1 - cand <= cfg.history {
                    let l = prefix_len(&buf, cand - 1, p, limit);
                    if l >= MIN_MATCH && l > best.0 {
                        best = (l, p + 1 - cand);
                    }
                }
                if best.0 == 0 {
                    write_fixed_symbol(w, buf[p] as usize);
                    stats.literals_emitted += 1;
                    p += 1;
                } else {
                    write_fixed_match(w, best.0 as u16, best.1 as u16);
                    stats.matches_emitted += 1;
                    p += best.0;
                    covered_until = p;
                }
            }
            for &b in &buf[hashed_end.max(start).max(covered_until).min(end)..end] {
                write_fixed_symbol(w, b as usize);
                stats.literals_emitted += 1;
            }
        }
        self.stats = stats;
    }

    /// Best-effort banked-hash-table tokenizer for one page: the
    /// reference model [`HwCompressor::encode_page`] must reproduce.
    fn tokenize_page_ref(&mut self, page: &[u8]) -> Vec<Token> {
        let cfg = self.config;
        let max_match = cfg.max_match();
        let slots = cfg.banks * cfg.entries_per_bank;
        // slot -> position of the most recent candidate (oldest replaced).
        let mut table: Vec<Option<u32>> = vec![None; slots];
        let mut tokens = Vec::new();

        let hash = |data: &[u8], pos: usize| -> usize {
            let h = (data[pos] as u32)
                .wrapping_mul(0x1_93)
                .wrapping_add((data[pos + 1] as u32).wrapping_mul(0x61))
                .wrapping_add((data[pos + 2] as u32).wrapping_mul(0x1F));
            (h as usize) % slots
        };

        let mut covered_until = 0usize; // positions below this are inside an emitted match
        let mut pos = 0usize;
        while pos < page.len() {
            // One cycle: a 64-byte cacheline.
            let line_end = (pos + CACHELINE).min(page.len());
            // Per-cycle bank port accounting.
            let mut reads_per_bank = vec![0usize; cfg.banks];
            let mut writes_per_bank = vec![0usize; cfg.banks];

            for p in pos..line_end {
                if p + MIN_MATCH > page.len() {
                    if p >= covered_until {
                        tokens.push(Token::Literal(page[p]));
                        self.stats.literals_emitted += 1;
                    }
                    continue;
                }
                let slot = hash(page, p);
                let bank = slot % cfg.banks;

                // Candidate lookup (only needed for uncovered positions,
                // but the hardware looks up every lane).
                let candidate = if reads_per_bank[bank] < cfg.ports_per_bank {
                    reads_per_bank[bank] += 1;
                    table[slot]
                } else {
                    self.stats.lookups_dropped += 1;
                    None
                };

                // Insert this position (replacing the older entry).
                if writes_per_bank[bank] < cfg.ports_per_bank {
                    writes_per_bank[bank] += 1;
                    table[slot] = Some(p as u32);
                } else {
                    self.stats.inserts_dropped += 1;
                }

                if p < covered_until {
                    continue; // inside a previously selected match
                }

                let try_candidate = |cand: usize| -> Option<(usize, usize)> {
                    let dist = p - cand;
                    if dist == 0 || dist > cfg.history {
                        return None;
                    }
                    let limit = (page.len() - p).min(max_match);
                    let mut l = 0;
                    while l < limit && page[cand + l] == page[p + l] {
                        l += 1;
                    }
                    if l >= MIN_MATCH {
                        Some((l, dist))
                    } else {
                        None
                    }
                };
                // The comparator array always sees the adjacent lane, so a
                // distance-1 candidate (run detection) is free — no Config
                // Memory port is consumed. This is how pipelined hardware
                // compressors handle runs.
                let neighbor = if p >= 1 { try_candidate(p - 1) } else { None };
                let table_match = candidate.and_then(|cand| try_candidate(cand as usize));
                let matched = match (neighbor, table_match) {
                    (Some(a), Some(b)) => Some(if b.0 > a.0 { b } else { a }),
                    (a, b) => a.or(b),
                };

                match matched {
                    Some((len, dist)) => {
                        tokens.push(Token::Match {
                            length: len as u16,
                            distance: dist as u16,
                        });
                        self.stats.matches_emitted += 1;
                        covered_until = p + len;
                    }
                    None => {
                        tokens.push(Token::Literal(page[p]));
                        self.stats.literals_emitted += 1;
                    }
                }
            }
            pos = line_end;
        }
        tokens
    }
}

/// Weights of the DSA's 3-byte hash `h = 0x193·b0 + 0x61·b1 + 0x1F·b2`.
const HASH_WEIGHTS: [usize; 3] = [0x1_93, 0x61, 0x1F];

/// One more than the largest hash, `255 · (0x193 + 0x61 + 0x1F)`. A
/// modulus at least this large leaves every hash unchanged, so moduli are
/// clamped here and tables never grow past it.
const HASH_SPAN: usize = 255 * (0x1_93 + 0x61 + 0x1F) + 1;

/// The hash of every position, reduced to its slot (`h % slots`) and its
/// bank (`h % banks`) without a multiply or a division.
///
/// Entry `[k][b]` packs `(w_k·b) % slots` in its low half and
/// `(w_k·b) % banks` in its high half. The sum of a position's three
/// entries holds each residue sum below three times its modulus (no
/// carry crosses the halves), so two conditional subtractions per half
/// finish the reduction. Built by repeated addition: no division per
/// entry.
struct HashParts {
    parts: [[u64; 256]; 3],
    slots: u64,
    banks: u64,
}

impl HashParts {
    fn new(slots: usize, banks: usize) -> HashParts {
        let slots = slots.min(HASH_SPAN) as u64;
        let banks = banks.min(HASH_SPAN) as u64;
        let mut parts = [[0u64; 256]; 3];
        for (table, &w) in parts.iter_mut().zip(&HASH_WEIGHTS) {
            let (step_s, step_b) = (w as u64 % slots, w as u64 % banks);
            let (mut s, mut b) = (0u64, 0u64);
            for e in table.iter_mut() {
                *e = s | b << 32;
                s = sub_if_ge(s + step_s, slots);
                b = sub_if_ge(b + step_b, banks);
            }
        }
        HashParts {
            parts,
            slots,
            banks,
        }
    }

    /// `(slot, bank)` of the hash of `buf[pos..pos + 3]`.
    #[inline]
    fn slot_bank(&self, buf: &[u8], pos: usize) -> (u32, u32) {
        let v = self.parts[0][buf[pos] as usize]
            + self.parts[1][buf[pos + 1] as usize]
            + self.parts[2][buf[pos + 2] as usize];
        let slot = sub_if_ge(sub_if_ge(v & 0xFFFF_FFFF, self.slots), self.slots);
        let bank = sub_if_ge(sub_if_ge(v >> 32, self.banks), self.banks);
        (slot as u32, bank as u32)
    }
}

/// `x - m` if `x >= m`, else `x`: below `m` the subtraction wraps past
/// `x`, so the minimum picks the right one without a branch.
#[inline]
fn sub_if_ge(x: u64, m: u64) -> u64 {
    x.min(x.wrapping_sub(m))
}

/// Length of the common prefix of `buf[a..]` and `buf[b..]` (`a < b`),
/// capped at `limit`, eight bytes per step. `buf` needs seven readable
/// bytes past `b + limit`: the page's zero padding.
#[inline]
fn prefix_len(buf: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let mut l = 0;
    while l < limit {
        let diff = load8(buf, a + l) ^ load8(buf, b + l);
        if diff != 0 {
            return (l + (diff.trailing_zeros() / 8) as usize).min(limit);
        }
        l += 8;
    }
    limit
}

/// The decompression DSA: functionally a streaming inflater with the same
/// deterministic cacheline-per-cycle model. Returns the decompressed page
/// and the buffer-device cycles consumed (one per 64 output bytes).
///
/// # Errors
///
/// Propagates [`crate::DecodeError`] from the inflater.
pub fn decompress_page(data: &[u8]) -> Result<(Vec<u8>, u64), crate::DecodeError> {
    let out = crate::inflate::decompress(data)?;
    let cycles = out.len().div_ceil(CACHELINE) as u64;
    Ok((out, cycles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::decompress;
    use crate::{corpus, deflate};
    use proptest::prelude::*;

    #[test]
    fn round_trip_compressible_page() {
        let page = b"SmartDIMM compresses pages near memory. ".repeat(50);
        let page = &page[..4096.min(page.len())];
        let mut dsa = HwCompressor::new(Default::default());
        let result = dsa.compress_page(page);
        assert!(!result.stored);
        assert!(result.data.len() < page.len());
        assert_eq!(decompress(&result.data).unwrap(), page);
        assert_eq!(result.cycles, (page.len() as u64).div_ceil(64));
    }

    #[test]
    fn incompressible_page_falls_back_to_stored() {
        let mut rng = simkit::DetRng::new(42);
        let mut page = vec![0u8; 4096];
        rng.fill_bytes(&mut page);
        let mut dsa = HwCompressor::new(Default::default());
        let result = dsa.compress_page(&page);
        assert!(result.stored);
        assert!(result.data.len() <= page.len() + 5);
        assert_eq!(decompress(&result.data).unwrap(), page);
        assert_eq!(dsa.stats().stored_fallbacks, 1);
    }

    #[test]
    fn message_splits_into_pages() {
        let msg = corpus::html(10_000, 7);
        let mut dsa = HwCompressor::new(Default::default());
        let pages = dsa.compress_message(&msg);
        assert_eq!(pages.len(), 3); // 4096 + 4096 + 1808
        let mut out = Vec::new();
        for p in &pages {
            out.extend(decompress(&p.data).unwrap());
        }
        assert_eq!(out, msg);
    }

    #[test]
    fn matches_are_capped_by_comparator_width() {
        // A long run: software would emit 258-byte matches, the DSA is
        // capped at 2*window.
        let page = vec![b'x'; 1024];
        let mut dsa = HwCompressor::new(Default::default());
        let result = dsa.compress_page(&page);
        assert_eq!(decompress(&result.data).unwrap(), page);
        let max = dsa.config().max_match();
        assert_eq!(max, 16);
        // Ratio is worse than software's, but still strongly compressed.
        let sw = deflate::compress(&page);
        assert!(result.data.len() >= sw.len());
        assert!(result.data.len() < page.len() / 4);
    }

    #[test]
    fn wider_window_improves_ratio_on_long_runs() {
        let page = corpus::text(4096, 3);
        let small = {
            let mut dsa = HwCompressor::new(HwDeflateConfig {
                window: 4,
                ..Default::default()
            });
            dsa.compress_page(&page).data.len()
        };
        let large = {
            let mut dsa = HwCompressor::new(HwDeflateConfig {
                window: 16,
                ..Default::default()
            });
            dsa.compress_page(&page).data.len()
        };
        assert!(large <= small, "window 16 ({large}) vs window 4 ({small})");
    }

    #[test]
    fn memory_cost_grows_with_window() {
        let a = HwDeflateConfig {
            window: 4,
            ..Default::default()
        };
        let b = HwDeflateConfig {
            window: 16,
            ..Default::default()
        };
        assert!(b.candidate_memory_bits() > 2 * a.candidate_memory_bits());
    }

    #[test]
    fn port_starvation_drops_candidates() {
        // One bank and one port: most parallel lookups in each cacheline
        // are dropped.
        let mut dsa = HwCompressor::new(HwDeflateConfig {
            banks: 1,
            ports_per_bank: 1,
            ..Default::default()
        });
        let page = corpus::text(4096, 5);
        let result = dsa.compress_page(&page);
        assert_eq!(decompress(&result.data).unwrap(), page);
        assert!(dsa.stats().lookups_dropped > 0);
        assert!(dsa.stats().inserts_dropped > 0);
    }

    #[test]
    fn history_window_respected() {
        let mut dsa = HwCompressor::new(HwDeflateConfig {
            history: 64,
            ..Default::default()
        });
        let mut page = corpus::text(600, 9);
        page.truncate(600);
        let result = dsa.compress_page(&page);
        assert_eq!(decompress(&result.data).unwrap(), page);
    }

    #[test]
    #[should_panic(expected = "4KB page granularity")]
    fn oversized_page_rejected() {
        HwCompressor::new(Default::default()).compress_page(&[0u8; 4097]);
    }

    #[test]
    fn decompress_page_cycle_accounting() {
        let page = corpus::json(2048, 1);
        let mut dsa = HwCompressor::new(Default::default());
        let result = dsa.compress_page(&page);
        let (out, cycles) = decompress_page(&result.data).unwrap();
        assert_eq!(out, page);
        assert_eq!(cycles, (page.len() as u64).div_ceil(64));
    }

    /// Compresses `page` with the fused kernel and with the token-vector
    /// reference on fresh compressors and asserts that the output bytes,
    /// the `stored` flag, the cycles and every [`HwStats`] counter agree.
    fn assert_matches_reference(cfg: HwDeflateConfig, page: &[u8]) {
        let mut fast = HwCompressor::new(cfg);
        let mut reference = HwCompressor::new(cfg);
        let got = fast.compress_page(page);
        let want = reference.compress_page_ref(page);
        assert_eq!(got, want, "{cfg:?}, {} bytes", page.len());
        assert_eq!(
            fast.stats(),
            reference.stats(),
            "{cfg:?}, {} bytes",
            page.len()
        );
    }

    /// Configurations around the paper's default: the narrowest and
    /// widest windows, bank and entry counts that are not powers of two,
    /// one port per bank, more ports than a line has lanes, and short
    /// histories.
    fn differential_configs() -> Vec<HwDeflateConfig> {
        let d = HwDeflateConfig::default();
        vec![
            d,
            HwDeflateConfig { window: 2, ..d },
            HwDeflateConfig { window: 32, ..d },
            HwDeflateConfig {
                banks: 1,
                ports_per_bank: 1,
                ..d
            },
            HwDeflateConfig {
                banks: 3,
                entries_per_bank: 100,
                ..d
            },
            HwDeflateConfig {
                banks: 5,
                entries_per_bank: 7,
                ports_per_bank: 2,
                ..d
            },
            HwDeflateConfig {
                banks: 16,
                entries_per_bank: 1000,
                ports_per_bank: 1,
                ..d
            },
            HwDeflateConfig {
                banks: 7,
                entries_per_bank: 30_000,
                ports_per_bank: 100,
                ..d
            },
            HwDeflateConfig {
                window: 4,
                history: 64,
                ..d
            },
            HwDeflateConfig {
                window: 129,
                history: 258,
                ..d
            },
        ]
    }

    #[test]
    fn fused_kernel_matches_reference_on_corpus_pages() {
        for cfg in differential_configs() {
            for kind in corpus::Kind::ALL {
                for (seed, len) in [(1, 4096), (2, 4096), (3, 4095), (4, 1500), (5, 64), (6, 3)] {
                    assert_matches_reference(cfg, &kind.generate(len, seed));
                }
            }
            assert_matches_reference(cfg, b"a");
            assert_matches_reference(cfg, b"ab");
        }
    }

    /// One page for the differential property: runs, short-period
    /// repeats, small-alphabet noise, corpus text or random bytes.
    fn differential_page(len: usize, kind: u8, seed: u64) -> Vec<u8> {
        let mut rng = simkit::DetRng::new(seed);
        match kind {
            0 => (0..len)
                .map(|_| b"ab"[rng.gen_range(0..2) as usize])
                .collect(),
            1 => (0..len).map(|_| rng.gen_range(0..6) as u8).collect(),
            2 => {
                let word: Vec<u8> = (0..1 + rng.gen_range(0..20))
                    .map(|_| rng.gen_range(0..256) as u8)
                    .collect();
                word.iter().cycle().take(len).copied().collect()
            }
            3 => corpus::Kind::ALL[rng.gen_range(0..5) as usize].generate(len, seed),
            _ => {
                // Runs of random length and byte.
                let mut page = Vec::with_capacity(len);
                while page.len() < len {
                    let b = rng.gen_range(0..4) as u8;
                    let run = (1 + rng.gen_range(0..40) as usize).min(len - page.len());
                    page.extend(std::iter::repeat_n(b, run));
                }
                page
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]
        #[test]
        fn prop_fused_kernel_matches_reference(
            len in 1usize..=4096,
            kind in 0u8..5,
            seed in any::<u64>(),
            window in 2usize..=32,
            banks in 1usize..=17,
            entries in 1usize..=600,
            ports in 1usize..=9,
            history in 0usize..=4096,
        ) {
            let cfg = HwDeflateConfig {
                window,
                banks,
                entries_per_bank: entries,
                ports_per_bank: ports,
                history: history.max(2 * window),
            };
            assert_matches_reference(cfg, &differential_page(len, kind, seed));
        }
    }

    proptest! {
        #[test]
        fn prop_hw_round_trips_any_page(
            data in proptest::collection::vec(any::<u8>(), 1..4096),
        ) {
            let mut dsa = HwCompressor::new(Default::default());
            let result = dsa.compress_page(&data);
            prop_assert_eq!(decompress(&result.data).unwrap(), data);
        }

        #[test]
        fn prop_hw_round_trips_compressible(
            word in proptest::collection::vec(any::<u8>(), 3..12),
            reps in 10usize..300,
            window in 2usize..16,
        ) {
            let data: Vec<u8> = word.iter().cycle().take((word.len() * reps).min(4096)).copied().collect();
            let mut dsa = HwCompressor::new(HwDeflateConfig { window, ..Default::default() });
            let result = dsa.compress_page(&data);
            prop_assert_eq!(decompress(&result.data).unwrap(), data);
        }

        #[test]
        fn prop_output_never_expands_past_stored(
            data in proptest::collection::vec(any::<u8>(), 1..4096),
        ) {
            let mut dsa = HwCompressor::new(Default::default());
            let result = dsa.compress_page(&data);
            prop_assert!(result.data.len() <= data.len() + 5);
        }
    }
}
