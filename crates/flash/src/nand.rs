//! The physical NAND array: page states, real data, and NAND rules.
//!
//! Enforces the constraints that shape FTL design: a page must be erased
//! before it can be programmed, pages within a block must be programmed in
//! order, and erasure happens at block granularity (paper Section 2). Each
//! block tracks its erase count for wear-levelling decisions.

use crate::config::FlashConfig;
use bytes::Bytes;
use std::fmt;

/// Physical page address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ppa {
    /// Channel index.
    pub channel: u16,
    /// Chip (die) index within the channel.
    pub chip: u16,
    /// Erase block within the chip.
    pub block: u32,
    /// Page within the block.
    pub page: u32,
}

impl fmt::Display for Ppa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{}/die{}/blk{}/pg{}",
            self.channel, self.chip, self.block, self.page
        )
    }
}

/// State of one physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Erased and programmable.
    Free,
    /// Holds live data mapped from some LBA.
    Valid,
    /// Holds stale data awaiting garbage collection.
    Invalid,
}

/// Violations of NAND programming rules or addressing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NandError {
    /// Address outside the configured geometry.
    BadAddress(Ppa),
    /// Programming a page that is not in the `Free` state.
    ProgramNotFree(Ppa),
    /// Programming pages of a block out of order.
    ProgramOutOfOrder(Ppa),
    /// Reading a page that holds no data.
    ReadUnwritten(Ppa),
}

impl fmt::Display for NandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NandError::BadAddress(p) => write!(f, "address {p} outside geometry"),
            NandError::ProgramNotFree(p) => write!(f, "program to non-free page {p}"),
            NandError::ProgramOutOfOrder(p) => {
                write!(f, "out-of-order program within block at {p}")
            }
            NandError::ReadUnwritten(p) => write!(f, "read of unwritten page {p}"),
        }
    }
}

impl std::error::Error for NandError {}

/// One erase block's bookkeeping.
#[derive(Debug, Clone)]
pub struct Block {
    states: Vec<PageState>,
    /// Next page index that may legally be programmed.
    next_program: u32,
    /// Number of `Valid` pages (GC victim scoring).
    valid_count: u32,
    /// Lifetime erase count (wear).
    erase_count: u32,
}

impl Block {
    fn new(pages: usize) -> Self {
        Self {
            states: vec![PageState::Free; pages],
            next_program: 0,
            valid_count: 0,
            erase_count: 0,
        }
    }

    /// Number of valid pages in the block.
    pub fn valid_count(&self) -> u32 {
        self.valid_count
    }

    /// Lifetime erase count.
    pub fn erase_count(&self) -> u32 {
        self.erase_count
    }

    /// Whether every page is still `Free`.
    pub fn is_erased(&self) -> bool {
        self.next_program == 0
    }

    /// Whether no further page can be programmed.
    pub fn is_full(&self, pages_per_block: usize) -> bool {
        self.next_program as usize >= pages_per_block
    }

    /// State of page `i`.
    pub fn page_state(&self, i: usize) -> PageState {
        self.states[i]
    }
}

/// One NAND die: blocks plus the actual page payloads and their owning LBAs.
#[derive(Debug, Clone)]
struct Chip {
    blocks: Vec<Block>,
    /// Page payloads, indexed `block * pages_per_block + page`.
    data: Vec<Option<Bytes>>,
    /// Owning logical page per physical page (for GC relocation).
    owner: Vec<Option<u64>>,
}

/// The full physical array (channel-major chip order).
pub struct NandArray {
    cfg: FlashConfig,
    chips: Vec<Chip>,
    erases_total: u64,
}

impl NandArray {
    /// Allocates an erased array for the given geometry.
    pub fn new(cfg: &FlashConfig) -> Self {
        cfg.validate();
        let per_chip = cfg.blocks_per_chip * cfg.pages_per_block;
        let chips = (0..cfg.channels * cfg.chips_per_channel)
            .map(|_| Chip {
                blocks: (0..cfg.blocks_per_chip)
                    .map(|_| Block::new(cfg.pages_per_block))
                    .collect(),
                data: vec![None; per_chip],
                owner: vec![None; per_chip],
            })
            .collect();
        Self {
            cfg: cfg.clone(),
            chips,
            erases_total: 0,
        }
    }

    fn chip_index(&self, ppa: Ppa) -> Result<usize, NandError> {
        if (ppa.channel as usize) < self.cfg.channels
            && (ppa.chip as usize) < self.cfg.chips_per_channel
            && (ppa.block as usize) < self.cfg.blocks_per_chip
            && (ppa.page as usize) < self.cfg.pages_per_block
        {
            Ok(ppa.channel as usize * self.cfg.chips_per_channel + ppa.chip as usize)
        } else {
            Err(NandError::BadAddress(ppa))
        }
    }

    fn page_index(&self, ppa: Ppa) -> usize {
        ppa.block as usize * self.cfg.pages_per_block + ppa.page as usize
    }

    /// Programs `data` into a free page, recording the owning LBA.
    pub fn program(&mut self, ppa: Ppa, lba: u64, data: Bytes) -> Result<(), NandError> {
        assert_eq!(data.len(), self.cfg.page_size, "payload must be page-sized");
        let ci = self.chip_index(ppa)?;
        let pi = self.page_index(ppa);
        let block = &mut self.chips[ci].blocks[ppa.block as usize];
        match block.states[ppa.page as usize] {
            PageState::Free => {}
            _ => return Err(NandError::ProgramNotFree(ppa)),
        }
        if block.next_program != ppa.page {
            return Err(NandError::ProgramOutOfOrder(ppa));
        }
        block.states[ppa.page as usize] = PageState::Valid;
        block.next_program += 1;
        block.valid_count += 1;
        self.chips[ci].data[pi] = Some(data);
        self.chips[ci].owner[pi] = Some(lba);
        Ok(())
    }

    /// Reads a valid page's payload. A stale page's payload is dropped when
    /// it is invalidated, so reading it fails like reading a free page.
    pub fn read(&self, ppa: Ppa) -> Result<Bytes, NandError> {
        let ci = self.chip_index(ppa)?;
        let pi = self.page_index(ppa);
        self.chips[ci].data[pi]
            .clone()
            .ok_or(NandError::ReadUnwritten(ppa))
    }

    /// Marks a page stale (its LBA was overwritten or trimmed) and drops
    /// its payload: nothing reads a stale page, so holding the bytes until
    /// the block is erased would only pin memory.
    pub fn invalidate(&mut self, ppa: Ppa) -> Result<(), NandError> {
        let ci = self.chip_index(ppa)?;
        let pi = self.page_index(ppa);
        let chip = &mut self.chips[ci];
        let block = &mut chip.blocks[ppa.block as usize];
        if block.states[ppa.page as usize] == PageState::Valid {
            block.states[ppa.page as usize] = PageState::Invalid;
            block.valid_count -= 1;
            chip.data[pi] = None;
        }
        Ok(())
    }

    /// Erases a whole block, dropping payloads and bumping wear.
    pub fn erase(&mut self, channel: u16, chip: u16, block: u32) -> Result<(), NandError> {
        let probe = Ppa {
            channel,
            chip,
            block,
            page: 0,
        };
        let ci = self.chip_index(probe)?;
        let ppb = self.cfg.pages_per_block;
        let b = &mut self.chips[ci].blocks[block as usize];
        b.states.fill(PageState::Free);
        b.next_program = 0;
        b.valid_count = 0;
        b.erase_count += 1;
        let base = block as usize * ppb;
        for i in base..base + ppb {
            self.chips[ci].data[i] = None;
            self.chips[ci].owner[i] = None;
        }
        self.erases_total += 1;
        Ok(())
    }

    /// Owning LBA of a physical page, if written.
    pub fn owner(&self, ppa: Ppa) -> Option<u64> {
        let ci = self.chip_index(ppa).ok()?;
        self.chips[ci].owner[self.page_index(ppa)]
    }

    /// Block bookkeeping for `(channel, chip, block)`.
    pub fn block(&self, channel: u16, chip: u16, block: u32) -> &Block {
        let ci = channel as usize * self.cfg.chips_per_channel + chip as usize;
        &self.chips[ci].blocks[block as usize]
    }

    /// Iterates `(page_index, owner_lba)` for the valid pages of a block —
    /// what GC must relocate.
    pub fn valid_pages(&self, channel: u16, chip: u16, block: u32) -> Vec<(u32, u64)> {
        let ci = channel as usize * self.cfg.chips_per_channel + chip as usize;
        let b = &self.chips[ci].blocks[block as usize];
        let base = block as usize * self.cfg.pages_per_block;
        b.states
            .iter()
            .enumerate()
            .filter(|&(_, s)| *s == PageState::Valid)
            .map(|(i, _)| {
                (
                    i as u32,
                    self.chips[ci].owner[base + i].expect("valid page has an owner"),
                )
            })
            .collect()
    }

    /// Total erases performed (all blocks).
    pub fn erases_total(&self) -> u64 {
        self.erases_total
    }

    /// Spread of block erase counts `(min, max)` across the array — the
    /// wear-levelling quality metric.
    pub fn wear_spread(&self) -> (u32, u32) {
        let mut min = u32::MAX;
        let mut max = 0;
        for chip in &self.chips {
            for b in &chip.blocks {
                min = min.min(b.erase_count);
                max = max.max(b.erase_count);
            }
        }
        (if min == u32::MAX { 0 } else { min }, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> NandArray {
        NandArray::new(&FlashConfig::tiny())
    }

    fn page_data(cfg: &FlashConfig, fill: u8) -> Bytes {
        Bytes::from(vec![fill; cfg.page_size])
    }

    #[test]
    fn program_read_round_trip() {
        let cfg = FlashConfig::tiny();
        let mut a = arr();
        let ppa = Ppa {
            channel: 0,
            chip: 0,
            block: 0,
            page: 0,
        };
        a.program(ppa, 42, page_data(&cfg, 0xAB)).unwrap();
        assert_eq!(a.read(ppa).unwrap(), page_data(&cfg, 0xAB));
        assert_eq!(a.owner(ppa), Some(42));
    }

    #[test]
    fn sequential_program_enforced() {
        let cfg = FlashConfig::tiny();
        let mut a = arr();
        let p2 = Ppa {
            channel: 0,
            chip: 0,
            block: 0,
            page: 2,
        };
        assert_eq!(
            a.program(p2, 0, page_data(&cfg, 0)).unwrap_err(),
            NandError::ProgramOutOfOrder(p2)
        );
    }

    #[test]
    fn double_program_rejected_until_erase() {
        let cfg = FlashConfig::tiny();
        let mut a = arr();
        let p = Ppa {
            channel: 1,
            chip: 1,
            block: 3,
            page: 0,
        };
        a.program(p, 1, page_data(&cfg, 1)).unwrap();
        assert!(matches!(
            a.program(p, 2, page_data(&cfg, 2)).unwrap_err(),
            NandError::ProgramNotFree(_)
        ));
        a.erase(1, 1, 3).unwrap();
        a.program(p, 2, page_data(&cfg, 2)).unwrap();
        assert_eq!(a.read(p).unwrap(), page_data(&cfg, 2));
        assert_eq!(a.block(1, 1, 3).erase_count(), 1);
    }

    #[test]
    fn invalidate_tracks_valid_count() {
        let cfg = FlashConfig::tiny();
        let mut a = arr();
        for pg in 0..4 {
            let p = Ppa {
                channel: 0,
                chip: 1,
                block: 2,
                page: pg,
            };
            a.program(p, pg as u64, page_data(&cfg, pg as u8)).unwrap();
        }
        assert_eq!(a.block(0, 1, 2).valid_count(), 4);
        let stale = Ppa {
            channel: 0,
            chip: 1,
            block: 2,
            page: 1,
        };
        a.invalidate(stale).unwrap();
        assert_eq!(a.block(0, 1, 2).valid_count(), 3);
        let valid = a.valid_pages(0, 1, 2);
        assert_eq!(valid.len(), 3);
        assert!(valid.iter().all(|&(pg, _)| pg != 1));
        // The stale page's payload is dropped; its neighbours keep theirs.
        assert_eq!(a.read(stale).unwrap_err(), NandError::ReadUnwritten(stale));
        assert_eq!(
            a.read(Ppa { page: 2, ..stale }).unwrap(),
            page_data(&cfg, 2)
        );
    }

    #[test]
    fn read_unwritten_fails() {
        let a = arr();
        let p = Ppa {
            channel: 0,
            chip: 0,
            block: 0,
            page: 0,
        };
        assert_eq!(a.read(p).unwrap_err(), NandError::ReadUnwritten(p));
    }

    #[test]
    fn bad_address_fails() {
        let cfg = FlashConfig::tiny();
        let mut a = arr();
        let p = Ppa {
            channel: 99,
            chip: 0,
            block: 0,
            page: 0,
        };
        assert_eq!(
            a.program(p, 0, page_data(&cfg, 0)).unwrap_err(),
            NandError::BadAddress(p)
        );
    }

    #[test]
    fn erase_drops_data_and_counts_wear() {
        let cfg = FlashConfig::tiny();
        let mut a = arr();
        let p = Ppa {
            channel: 0,
            chip: 0,
            block: 1,
            page: 0,
        };
        a.program(p, 7, page_data(&cfg, 7)).unwrap();
        a.erase(0, 0, 1).unwrap();
        assert!(matches!(a.read(p), Err(NandError::ReadUnwritten(_))));
        assert_eq!(a.erases_total(), 1);
        assert_eq!(a.wear_spread(), (0, 1));
    }
}
