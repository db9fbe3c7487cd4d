//! Gas metering.
//!
//! Every contract execution is priced in gas, exactly as on public
//! blockchains: a base cost per transaction, per-byte costs for payloads
//! and storage, and per-operation compute costs. Gas numbers drive the
//! affordability analysis (paper §V-4, experiments E7/E9/E12).

/// The price list. Numbers are loosely modelled on Ethereum's relative
/// magnitudes (storage ≫ compute ≫ calldata) so cost *shapes* transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GasSchedule {
    /// Flat cost charged for every transaction.
    pub tx_base: u64,
    /// Per byte of transaction payload.
    pub payload_byte: u64,
    /// Per byte written to contract storage.
    pub storage_write_byte: u64,
    /// Per byte read from contract storage.
    pub storage_read_byte: u64,
    /// Flat cost per storage key touched.
    pub storage_access: u64,
    /// Per byte of emitted event data.
    pub event_byte: u64,
    /// Flat cost per event.
    pub event_base: u64,
    /// Per abstract compute unit (contracts charge these explicitly for
    /// loops over collections).
    pub compute_unit: u64,
}

impl Default for GasSchedule {
    fn default() -> Self {
        GasSchedule {
            tx_base: 21_000,
            payload_byte: 16,
            storage_write_byte: 625, // ≈ 20k per 32-byte word
            storage_read_byte: 25,   // ≈ 800 per word
            storage_access: 100,
            event_byte: 8,
            event_base: 375,
            compute_unit: 5,
        }
    }
}

/// Raised when a transaction exhausts its gas limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfGas {
    /// The limit that was exceeded.
    pub limit: u64,
}

impl std::fmt::Display for OutOfGas {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "out of gas (limit {})", self.limit)
    }
}

impl std::error::Error for OutOfGas {}

/// Tracks gas consumption against a limit during one execution.
#[derive(Debug, Clone)]
pub struct GasMeter {
    limit: u64,
    used: u64,
    schedule: GasSchedule,
}

impl GasMeter {
    /// A meter with the given limit and schedule.
    pub fn new(limit: u64, schedule: GasSchedule) -> GasMeter {
        GasMeter {
            limit,
            used: 0,
            schedule,
        }
    }

    /// A meter with an effectively unlimited budget (read-only view calls).
    pub fn unmetered() -> GasMeter {
        GasMeter::new(u64::MAX, GasSchedule::default())
    }

    /// The schedule in force.
    pub fn schedule(&self) -> &GasSchedule {
        &self.schedule
    }

    /// Gas consumed so far.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Gas remaining.
    pub fn remaining(&self) -> u64 {
        self.limit - self.used
    }

    /// Charges raw gas.
    ///
    /// # Errors
    /// Returns [`OutOfGas`] when the limit would be exceeded; the meter is
    /// then pinned at the limit (all gas consumed, like EVM semantics).
    pub(crate) fn charge(&mut self, gas: u64) -> Result<(), OutOfGas> {
        let new_used = self.used.saturating_add(gas);
        if new_used > self.limit {
            self.used = self.limit;
            return Err(OutOfGas { limit: self.limit });
        }
        self.used = new_used;
        Ok(())
    }

    /// Charges for `n` abstract compute units.
    pub(crate) fn charge_compute(&mut self, n: u64) -> Result<(), OutOfGas> {
        self.charge(self.schedule.compute_unit.saturating_mul(n))
    }

    /// Charges for reading `bytes` from storage.
    pub(crate) fn charge_storage_read(&mut self, bytes: usize) -> Result<(), OutOfGas> {
        self.charge(
            self.schedule
                .storage_access
                .saturating_add(self.schedule.storage_read_byte.saturating_mul(bytes as u64)),
        )
    }

    /// Charges for writing `bytes` to storage.
    pub(crate) fn charge_storage_write(&mut self, bytes: usize) -> Result<(), OutOfGas> {
        self.charge(
            self.schedule.storage_access.saturating_add(
                self.schedule
                    .storage_write_byte
                    .saturating_mul(bytes as u64),
            ),
        )
    }

    /// Charges for emitting an event with `bytes` of data.
    pub(crate) fn charge_event(&mut self, bytes: usize) -> Result<(), OutOfGas> {
        self.charge(
            self.schedule
                .event_base
                .saturating_add(self.schedule.event_byte.saturating_mul(bytes as u64)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charging_accumulates() {
        let mut m = GasMeter::new(1000, GasSchedule::default());
        m.charge(300).unwrap();
        m.charge(300).unwrap();
        assert_eq!(m.used(), 600);
        assert_eq!(m.remaining(), 400);
    }

    #[test]
    fn out_of_gas_pins_to_limit() {
        let mut m = GasMeter::new(100, GasSchedule::default());
        assert_eq!(m.charge(150), Err(OutOfGas { limit: 100 }));
        assert_eq!(m.used(), 100, "all gas consumed on failure");
        assert_eq!(m.remaining(), 0);
    }

    #[test]
    fn exact_limit_is_allowed() {
        let mut m = GasMeter::new(100, GasSchedule::default());
        assert!(m.charge(100).is_ok());
        assert!(m.charge(1).is_err());
    }

    #[test]
    fn storage_writes_cost_more_than_reads() {
        let s = GasSchedule::default();
        let mut w = GasMeter::new(u64::MAX, s.clone());
        let mut r = GasMeter::new(u64::MAX, s);
        w.charge_storage_write(64).unwrap();
        r.charge_storage_read(64).unwrap();
        assert!(
            w.used() > 10 * r.used(),
            "writes dominate: {} vs {}",
            w.used(),
            r.used()
        );
    }

    #[test]
    fn event_costs_scale_with_size() {
        let mut small = GasMeter::new(u64::MAX, GasSchedule::default());
        let mut large = GasMeter::new(u64::MAX, GasSchedule::default());
        small.charge_event(10).unwrap();
        large.charge_event(1000).unwrap();
        assert!(large.used() > small.used());
    }

    #[test]
    fn unmetered_never_runs_out() {
        let mut m = GasMeter::unmetered();
        for _ in 0..1000 {
            m.charge(u64::MAX / 2000).unwrap();
        }
    }

    #[test]
    fn display_out_of_gas() {
        assert!(OutOfGas { limit: 9 }.to_string().contains('9'));
    }
}
