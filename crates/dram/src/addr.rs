//! Physical address mapping: physical address ⇄ (channel, rank, bank
//! group, bank, row, column).
//!
//! The decode order is the common bank-interleaved scheme:
//! `offset(6) | bg | bank | column | rank | row`, with the channel bits
//! taken above the offset at a configurable interleave granularity
//! (§V-D: modern servers map only 1–4 consecutive cachelines to the
//! same DIMM). The paper's prototype ran single-channel; this
//! reproduction scales to N channels, one SmartDIMM shard per channel,
//! with fine interleave striping every page across shards and coarse
//! interleave (`channel_interleave_lines ≥ 64`) pinning whole pages to
//! one channel while consecutive pages rotate.

use std::fmt;

/// A byte-granular physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// The 4 KB page number of this address.
    pub fn page(self) -> u64 {
        self.0 >> 12
    }

    /// The address of the cacheline containing this address.
    pub fn cacheline(self) -> PhysAddr {
        PhysAddr(self.0 & !63)
    }

    /// Byte offset within the cacheline.
    pub fn line_offset(self) -> usize {
        (self.0 & 63) as usize
    }

    /// Whether the address is 64-byte aligned.
    pub fn is_line_aligned(self) -> bool {
        self.0 & 63 == 0
    }

    /// Whether the address is 4 KB aligned.
    pub fn is_page_aligned(self) -> bool {
        self.0 & 4095 == 0
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// DRAM organization parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTopology {
    /// Number of memory channels (total, across all sockets).
    pub channels: usize,
    /// Ranks per DIMM.
    pub ranks: usize,
    /// DIMMs per channel. Only the slot-0 DIMM of each channel carries
    /// the SmartDIMM buffer device; the remaining slots are plain
    /// capacity DIMMs, so offload placement has to care which DIMM a
    /// buffer decodes to.
    pub dimms_per_channel: usize,
    /// CPU sockets. Channels are split evenly across sockets
    /// (`channels % sockets == 0`); accesses from the home socket to a
    /// channel owned by another socket cross the inter-socket link and
    /// pay the configured interconnect penalty.
    pub sockets: usize,
    /// Bank groups per rank (DDR4: 4).
    pub bank_groups: usize,
    /// Banks per bank group (DDR4: 4).
    pub banks_per_group: usize,
    /// Cachelines per row ("row buffer" of 8 KB = 128 lines).
    pub lines_per_row: usize,
    /// Rows per bank.
    pub rows: usize,
    /// Consecutive cachelines mapped to one channel before switching
    /// (§V-D interleave granularity; 1–4 typical, large = coarse-grain).
    pub channel_interleave_lines: usize,
}

impl Default for DramTopology {
    /// Single-socket, single-channel, single-rank 4 GiB DIMM — the
    /// AxDIMM-class setup scaled down for simulation (16 banks ×
    /// 32 Ki rows × 8 KB rows). `capacity_math` in this module asserts
    /// this figure so the doc and the geometry cannot drift apart.
    fn default() -> Self {
        DramTopology {
            channels: 1,
            ranks: 1,
            dimms_per_channel: 1,
            sockets: 1,
            bank_groups: 4,
            banks_per_group: 4,
            lines_per_row: 128,
            rows: 1 << 15,
            channel_interleave_lines: 1,
        }
    }
}

impl DramTopology {
    /// Banks per rank.
    pub fn banks_per_rank(&self) -> usize {
        self.bank_groups * self.banks_per_group
    }

    /// Ranks visible on one channel's command bus: `ranks` per DIMM ×
    /// `dimms_per_channel` slots. The address decode's rank field spans
    /// this range; `rank / ranks` recovers the DIMM slot.
    pub fn ranks_per_channel(&self) -> usize {
        self.ranks * self.dimms_per_channel
    }

    /// Channels owned by each socket (`channels / sockets`).
    pub fn channels_per_socket(&self) -> usize {
        self.channels / self.sockets
    }

    /// The socket owning `channel` — channels are split contiguously.
    pub fn socket_of_channel(&self, channel: usize) -> usize {
        channel / self.channels_per_socket()
    }

    /// The DIMM slot within a channel that a decoded (channel-local)
    /// rank index belongs to. Slot 0 is the DSA-bearing DIMM.
    pub fn dimm_slot_of_rank(&self, rank: usize) -> usize {
        rank / self.ranks
    }

    /// Total addressable bytes.
    pub fn capacity_bytes(&self) -> u64 {
        (self.channels
            * self.ranks_per_channel()
            * self.banks_per_rank()
            * self.rows
            * self.lines_per_row) as u64
            * 64
    }
}

/// A fully decoded DRAM location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc {
    /// Channel index.
    pub channel: usize,
    /// Rank within the channel, spanning every DIMM slot on the bus
    /// (`0..ranks_per_channel()`); `rank / ranks` is the DIMM slot and
    /// `rank % ranks` the rank within that DIMM.
    pub rank: usize,
    /// Bank group.
    pub bg: usize,
    /// Bank within the group.
    pub bank: usize,
    /// Row.
    pub row: usize,
    /// Column, in cachelines within the row.
    pub col: usize,
}

impl Loc {
    /// Flat bank index within the rank (`bg * banks_per_group + bank`) —
    /// the index SmartDIMM's Bank Table uses.
    pub fn bank_index(&self, topo: &DramTopology) -> usize {
        self.bg * topo.banks_per_group + self.bank
    }
}

/// Bidirectional physical-address ⇄ location mapper.
///
/// # Example
///
/// ```
/// use dram::{AddressMapper, DramTopology, PhysAddr};
/// let mapper = AddressMapper::new(DramTopology::default());
/// let loc = mapper.decode(PhysAddr(0x12340));
/// assert_eq!(mapper.encode(&loc), PhysAddr(0x12340).cacheline());
/// ```
#[derive(Debug, Clone)]
pub struct AddressMapper {
    topo: DramTopology,
}

impl AddressMapper {
    /// Creates a mapper for the given topology.
    ///
    /// # Panics
    ///
    /// Panics if any topology field is zero or the interleave granularity
    /// is not a power of two.
    pub fn new(topo: DramTopology) -> AddressMapper {
        assert!(topo.channels > 0 && topo.ranks > 0, "empty topology");
        assert!(topo.bank_groups > 0 && topo.banks_per_group > 0, "no banks");
        assert!(topo.lines_per_row > 0 && topo.rows > 0, "no rows");
        assert!(
            topo.dimms_per_channel > 0 && topo.sockets > 0,
            "empty topology"
        );
        assert!(
            topo.channels.is_multiple_of(topo.sockets),
            "channels must split evenly across sockets"
        );
        assert!(
            topo.channel_interleave_lines.is_power_of_two(),
            "interleave granularity must be a power of two"
        );
        AddressMapper { topo }
    }

    /// The topology this mapper serves.
    pub fn topology(&self) -> &DramTopology {
        &self.topo
    }

    /// Decodes a physical address to its DRAM location (cacheline
    /// granularity; the 6 offset bits are dropped).
    pub fn decode(&self, addr: PhysAddr) -> Loc {
        let t = &self.topo;
        let mut line = addr.0 >> 6;
        // Channel bits sit above `channel_interleave_lines` lines.
        let gran = t.channel_interleave_lines as u64;
        let within = line % gran;
        line /= gran;
        let channel = (line % t.channels as u64) as usize;
        line /= t.channels as u64;
        let line = line * gran + within;

        let bg = (line % t.bank_groups as u64) as usize;
        let rest = line / t.bank_groups as u64;
        let bank = (rest % t.banks_per_group as u64) as usize;
        let rest = rest / t.banks_per_group as u64;
        let col = (rest % t.lines_per_row as u64) as usize;
        let rest = rest / t.lines_per_row as u64;
        let ranks = t.ranks_per_channel() as u64;
        let rank = (rest % ranks) as usize;
        let row = (rest / ranks) as usize % t.rows;
        Loc {
            channel,
            rank,
            bg,
            bank,
            row,
            col,
        }
    }

    /// Re-encodes a location to the (cacheline-aligned) physical address —
    /// SmartDIMM's *Addr Remap* module (§IV-C): the buffer device must
    /// reconstruct physical addresses from `(row, bg, bank, col)` because
    /// acceleration ranges are defined in the physical address space.
    pub fn encode(&self, loc: &Loc) -> PhysAddr {
        let t = &self.topo;
        let mut line = loc.row as u64;
        line = line * t.ranks_per_channel() as u64 + loc.rank as u64;
        line = line * t.lines_per_row as u64 + loc.col as u64;
        line = line * t.banks_per_group as u64 + loc.bank as u64;
        line = line * t.bank_groups as u64 + loc.bg as u64;

        let gran = t.channel_interleave_lines as u64;
        let within = line % gran;
        let blocks = line / gran;
        let line = (blocks * t.channels as u64 + loc.channel as u64) * gran + within;
        PhysAddr(line << 6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn phys_addr_helpers() {
        let a = PhysAddr(0x12345);
        assert_eq!(a.page(), 0x12);
        assert_eq!(a.cacheline(), PhysAddr(0x12340));
        assert_eq!(a.line_offset(), 5);
        assert!(!a.is_line_aligned());
        assert!(PhysAddr(0x1000).is_page_aligned());
        assert!(!PhysAddr(0x1040).is_page_aligned());
        assert_eq!(format!("{}", a), "0x12345");
    }

    #[test]
    fn decode_encode_round_trip_default() {
        let mapper = AddressMapper::new(DramTopology::default());
        for addr in (0..1_000_000u64).step_by(64 * 7) {
            let a = PhysAddr(addr).cacheline();
            assert_eq!(mapper.encode(&mapper.decode(a)), a, "addr {a}");
        }
    }

    #[test]
    fn consecutive_lines_interleave_across_banks() {
        let mapper = AddressMapper::new(DramTopology::default());
        let l0 = mapper.decode(PhysAddr(0));
        let l1 = mapper.decode(PhysAddr(64));
        // Adjacent cachelines land in different bank groups.
        assert_ne!((l0.bg, l0.bank), (l1.bg, l1.bank));
        assert_eq!(l0.row, l1.row);
    }

    #[test]
    fn channel_interleaving_granularity() {
        let topo = DramTopology {
            channels: 2,
            channel_interleave_lines: 2,
            ..DramTopology::default()
        };
        let mapper = AddressMapper::new(topo);
        let chans: Vec<usize> = (0..8)
            .map(|i| mapper.decode(PhysAddr(i * 64)).channel)
            .collect();
        // Two consecutive lines per channel before switching.
        assert_eq!(chans, vec![0, 0, 1, 1, 0, 0, 1, 1]);
    }

    #[test]
    fn single_channel_keeps_everything_local() {
        let mapper = AddressMapper::new(DramTopology::default());
        for i in 0..256u64 {
            assert_eq!(mapper.decode(PhysAddr(i * 64)).channel, 0);
        }
    }

    #[test]
    fn bank_index_is_flat() {
        let topo = DramTopology::default();
        let loc = Loc {
            channel: 0,
            rank: 0,
            bg: 2,
            bank: 3,
            row: 0,
            col: 0,
        };
        assert_eq!(loc.bank_index(&topo), 11);
    }

    #[test]
    fn capacity_math() {
        let topo = DramTopology::default();
        // 1 ch * 1 rank * 16 banks * 32768 rows * 128 lines * 64 B = 4 GiB —
        // exactly what `DramTopology::default()`'s rustdoc promises.
        assert_eq!(topo.capacity_bytes(), 4 << 30);
        assert_eq!(topo.banks_per_rank(), 16);
        // Extra DIMM slots add capacity multiplicatively.
        let multi = DramTopology {
            dimms_per_channel: 2,
            ..topo
        };
        assert_eq!(multi.capacity_bytes(), 8 << 30);
    }

    #[test]
    fn topology_helpers() {
        let topo = DramTopology {
            channels: 4,
            ranks: 2,
            dimms_per_channel: 2,
            sockets: 2,
            ..DramTopology::default()
        };
        assert_eq!(topo.ranks_per_channel(), 4);
        assert_eq!(topo.channels_per_socket(), 2);
        assert_eq!(topo.socket_of_channel(0), 0);
        assert_eq!(topo.socket_of_channel(1), 0);
        assert_eq!(topo.socket_of_channel(2), 1);
        assert_eq!(topo.socket_of_channel(3), 1);
        assert_eq!(topo.dimm_slot_of_rank(0), 0);
        assert_eq!(topo.dimm_slot_of_rank(1), 0);
        assert_eq!(topo.dimm_slot_of_rank(2), 1);
        assert_eq!(topo.dimm_slot_of_rank(3), 1);
    }

    #[test]
    #[should_panic(expected = "split evenly")]
    fn sockets_must_divide_channels() {
        let topo = DramTopology {
            channels: 3,
            sockets: 2,
            ..DramTopology::default()
        };
        AddressMapper::new(topo);
    }

    #[test]
    fn rank_field_spans_dimm_slots() {
        let topo = DramTopology {
            ranks: 1,
            dimms_per_channel: 2,
            ..DramTopology::default()
        };
        let mapper = AddressMapper::new(topo);
        // With one rank per DIMM and two slots, the decoded rank field
        // alternates slots exactly where a 2-rank decode would
        // alternate ranks, and every address round-trips.
        let mut seen_slot1 = false;
        for line in 0..(1u64 << 16) {
            let a = PhysAddr(line * 64);
            let loc = mapper.decode(a);
            assert!(loc.rank < topo.ranks_per_channel());
            seen_slot1 |= topo.dimm_slot_of_rank(loc.rank) == 1;
            assert_eq!(mapper.encode(&loc), a);
        }
        assert!(seen_slot1, "slot-1 DIMM never addressed");
    }

    proptest! {
        #[test]
        fn prop_round_trip_arbitrary_topology(
            addr_line in 0u64..(1 << 24),
            sockets in 1usize..3,
            channels_per_socket in 1usize..4,
            ranks in 1usize..3,
            dimms in 1usize..3,
            gran_log in 0u32..3,
            channel_pick in 0usize..64,
            rank_pick in 0usize..64,
            bank_index in 0usize..16,
            row in 0usize..(1 << 15),
            col in 0usize..128,
        ) {
            let topo = DramTopology {
                channels: sockets * channels_per_socket,
                ranks,
                dimms_per_channel: dimms,
                sockets,
                channel_interleave_lines: 1 << gran_log,
                ..DramTopology::default()
            };
            let mapper = AddressMapper::new(topo);
            // Every address below capacity (2^26+ lines here) survives
            // decode → encode ...
            let a = PhysAddr(addr_line * 64);
            prop_assert_eq!(mapper.encode(&mapper.decode(a)), a);
            // ... and every in-range location survives encode → decode,
            // so the map is a bijection over the whole topology.
            let loc = Loc {
                channel: channel_pick % topo.channels,
                rank: rank_pick % topo.ranks_per_channel(),
                bg: bank_index / topo.banks_per_group,
                bank: bank_index % topo.banks_per_group,
                row,
                col,
            };
            prop_assert_eq!(mapper.decode(mapper.encode(&loc)), loc);
        }

        #[test]
        fn prop_decode_fields_in_range(addr_line in 0u64..(1 << 26)) {
            let topo = DramTopology { channels: 2, ranks: 2, ..DramTopology::default() };
            let mapper = AddressMapper::new(topo);
            let loc = mapper.decode(PhysAddr(addr_line * 64));
            prop_assert!(loc.channel < 2);
            prop_assert!(loc.rank < 2);
            prop_assert!(loc.bg < 4);
            prop_assert!(loc.bank < 4);
            prop_assert!(loc.col < 128);
            prop_assert!(loc.row < (1 << 15));
        }
    }
}
