//! Mica2-class radio energy model.
//!
//! §4: "We assume a generic MAC-layer protocol and measure the energy spent
//! on both sending and receiving. Each transmitted message includes a
//! header of fixed size, followed by the body."
//!
//! Costs are parameterized so experiments can sweep radio constants; the
//! defaults are derived from the Mica2's CC1000 radio (≈27 mA TX / 10 mA RX
//! at 3 V, 38.4 kbaud Manchester ⇒ ≈19.2 kbps effective), which gives
//! ≈33 µJ per transmitted byte and ≈12.5 µJ per received byte, plus a fixed
//! per-message cost for the preamble/synchronization that the MAC adds to
//! every packet. Absolute joules are not the reproduction target — the
//! figure *shapes* are — but the constants are realistic.

/// Energy accounting for message transmission and reception. All values in
/// microjoules (µJ) and bytes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Fixed per-message header size in bytes (§4: "a header of fixed
    /// size, followed by the body").
    pub header_bytes: u32,
    /// Energy to transmit one byte (µJ).
    pub tx_uj_per_byte: f64,
    /// Energy to receive one byte (µJ).
    pub rx_uj_per_byte: f64,
    /// Fixed per-message transmit overhead (preamble/synchronization, µJ).
    pub tx_fixed_uj: f64,
    /// Fixed per-message receive overhead (µJ).
    pub rx_fixed_uj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::mica2()
    }
}

impl EnergyModel {
    /// The default Mica2-class model (see module docs). The MAC preamble
    /// and synchronization bytes are folded into `header_bytes` — the
    /// paper's model is exactly "a header of fixed size, followed by the
    /// body", with energy spent per byte on both sending and receiving.
    pub const fn mica2() -> Self {
        EnergyModel {
            header_bytes: 12,
            tx_uj_per_byte: 33.0,
            rx_uj_per_byte: 12.5,
            tx_fixed_uj: 0.0,
            rx_fixed_uj: 0.0,
        }
    }

    /// Total on-air size of a message with the given body (bytes).
    #[inline]
    pub fn message_bytes(&self, body_bytes: u32) -> u32 {
        self.header_bytes + body_bytes
    }

    /// Energy to transmit one message with the given body size (µJ).
    #[inline]
    pub fn tx_cost_uj(&self, body_bytes: u32) -> f64 {
        self.tx_fixed_uj + f64::from(self.message_bytes(body_bytes)) * self.tx_uj_per_byte
    }

    /// Energy for one node to receive one message (µJ).
    #[inline]
    pub fn rx_cost_uj(&self, body_bytes: u32) -> f64 {
        self.rx_fixed_uj + f64::from(self.message_bytes(body_bytes)) * self.rx_uj_per_byte
    }

    /// Energy for a unicast message: one transmission plus one reception
    /// (µJ). The paper measures "the energy spent on both sending and
    /// receiving".
    #[inline]
    pub fn unicast_cost_uj(&self, body_bytes: u32) -> f64 {
        self.tx_cost_uj(body_bytes) + self.rx_cost_uj(body_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_includes_header() {
        let m = EnergyModel::mica2();
        assert_eq!(m.message_bytes(4), 16);
        assert_eq!(m.message_bytes(0), 12);
    }

    #[test]
    fn unicast_is_tx_plus_rx() {
        let m = EnergyModel::mica2();
        let body = 12;
        assert!(
            (m.unicast_cost_uj(body) - (m.tx_cost_uj(body) + m.rx_cost_uj(body))).abs() < 1e-12
        );
    }

    #[test]
    fn bigger_bodies_cost_more_but_share_header() {
        let m = EnergyModel::mica2();
        // Two merged units in one message are cheaper than two messages:
        // the per-message overhead is paid once.
        let merged = m.unicast_cost_uj(8);
        let separate = 2.0 * m.unicast_cost_uj(4);
        assert!(merged < separate);
    }
}
