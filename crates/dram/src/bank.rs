//! Per-bank state machine: open row tracking and timing windows.

use simkit::Cycle;

use crate::timing::Timing;

/// The state of one DRAM bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowState {
    /// No row is open (precharged).
    Closed,
    /// The given row is open in the row buffer.
    Open(usize),
}

/// One bank's row buffer and earliest-next-command constraints.
#[derive(Debug, Clone)]
pub struct Bank {
    state: RowState,
    /// Earliest cycle an ACT may issue.
    act_ready: Cycle,
    /// Earliest cycle a CAS may issue (after ACT + tRCD).
    cas_ready: Cycle,
    /// Earliest cycle a PRE may issue (tRAS / tWR constraints).
    pre_ready: Cycle,
}

impl Default for Bank {
    fn default() -> Self {
        Bank {
            state: RowState::Closed,
            act_ready: Cycle::ZERO,
            cas_ready: Cycle::ZERO,
            pre_ready: Cycle::ZERO,
        }
    }
}

impl Bank {
    /// Current row state.
    pub fn state(&self) -> RowState {
        self.state
    }

    /// Whether `row` is open in this bank.
    pub fn is_open(&self, row: usize) -> bool {
        self.state == RowState::Open(row)
    }

    /// Issues whatever PRE/ACT sequence is needed so `row` is open, and
    /// returns `(cas_issue_cycle, activated, precharged)`.
    pub fn open_row(&mut self, now: Cycle, row: usize, t: &Timing) -> (Cycle, bool, bool) {
        match self.state {
            RowState::Open(open) if open == row => {
                (Cycle(now.raw().max(self.cas_ready.raw())), false, false)
            }
            RowState::Open(_) => {
                let pre_at = now.raw().max(self.pre_ready.raw());
                let act_at = (pre_at + t.t_rp).max(self.act_ready.raw());
                self.activate(Cycle(act_at), row, t);
                (Cycle(act_at + t.t_rcd), true, true)
            }
            RowState::Closed => {
                let act_at = now.raw().max(self.act_ready.raw());
                self.activate(Cycle(act_at), row, t);
                (Cycle(act_at + t.t_rcd), true, false)
            }
        }
    }

    fn activate(&mut self, at: Cycle, row: usize, t: &Timing) {
        self.state = RowState::Open(row);
        self.cas_ready = at + t.t_rcd;
        self.pre_ready = at + t.t_ras;
        self.act_ready = at + t.t_ras + t.t_rp; // tRC lower bound
    }

    /// Records a read CAS issued at `at`.
    pub fn on_read(&mut self, at: Cycle, t: &Timing) {
        // Row must stay open until read-to-precharge completes.
        let p = at + t.t_burst + 2;
        if p > self.pre_ready {
            self.pre_ready = p;
        }
    }

    /// Records a write CAS issued at `at` (write recovery gates PRE).
    pub fn on_write(&mut self, at: Cycle, t: &Timing) {
        let p = at + t.t_cwl + t.t_burst + t.t_wr;
        if p > self.pre_ready {
            self.pre_ready = p;
        }
    }

    /// Precharges the bank for an all-bank refresh (PREA before REF).
    pub fn precharge(&mut self, now: Cycle, t: &Timing) {
        let at = now.raw().max(self.pre_ready.raw());
        self.state = RowState::Closed;
        self.act_ready = Cycle(at + t.t_rp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_bank_needs_activation() {
        let mut b = Bank::default();
        let t = Timing::default();
        let (cas_at, act, pre) = b.open_row(Cycle(100), 5, &t);
        assert!(act && !pre);
        assert_eq!(cas_at, Cycle(100 + t.t_rcd));
        assert!(b.is_open(5));
    }

    #[test]
    fn row_hit_issues_immediately() {
        let mut b = Bank::default();
        let t = Timing::default();
        let (first, _, _) = b.open_row(Cycle(0), 5, &t);
        let (again, act, pre) = b.open_row(first + 10, 5, &t);
        assert!(!act && !pre);
        assert_eq!(again, first + 10);
    }

    #[test]
    fn row_conflict_precharges_first() {
        let mut b = Bank::default();
        let t = Timing::default();
        let (cas1, _, _) = b.open_row(Cycle(0), 5, &t);
        b.on_read(cas1, &t);
        let (cas2, act, pre) = b.open_row(cas1 + 1, 9, &t);
        assert!(act && pre);
        // Must respect tRAS before precharge, then tRP + tRCD.
        assert!(cas2.raw() >= t.t_ras + t.t_rp + t.t_rcd);
        assert!(b.is_open(9));
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let mut b = Bank::default();
        let t = Timing::default();
        let (cas, _, _) = b.open_row(Cycle(0), 1, &t);
        b.on_write(cas, &t);
        let before = cas + t.t_cwl + t.t_burst + t.t_wr;
        b.precharge(cas + 1, &t);
        assert_eq!(b.state(), RowState::Closed);
        // act_ready reflects precharge happening only after write recovery.
        let (cas2, _, _) = b.open_row(cas + 1, 2, &t);
        assert!(cas2.raw() >= before.raw() + t.t_rp);
    }

    #[test]
    fn default_state_is_closed() {
        assert_eq!(Bank::default().state(), RowState::Closed);
    }
}
