//! Per-site and per-session cost accounting.
//!
//! Every quantity the experiments report is counted here rather than
//! re-derived ad hoc: timestamp integers and bytes actually sent,
//! transformations performed, concurrency checks evaluated, and clock
//! storage held. The paper's claims map onto these fields directly
//! (e.g. "a minimum of two integers" → [`SiteMetrics::stamp_integers_sent`]
//! divided by [`SiteMetrics::messages_sent`]).

use serde::{Deserialize, Serialize};
use std::ops::AddAssign;

/// Cost counters for one site (or aggregated over a session).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteMetrics {
    /// Operations generated locally.
    pub ops_generated: u64,
    /// Remote operations executed.
    pub ops_executed_remote: u64,
    /// Messages sent.
    pub messages_sent: u64,
    /// Total encoded bytes sent.
    pub bytes_sent: u64,
    /// Bytes of those that were timestamp data.
    pub stamp_bytes_sent: u64,
    /// Integer elements of timestamp data sent (the paper counts integers).
    pub stamp_integers_sent: u64,
    /// Pairwise operation transformations performed.
    pub transforms: u64,
    /// Concurrency checks evaluated (formula (5)/(7) or formula (3)).
    pub concurrency_checks: u64,
    /// Of those, how many returned "concurrent".
    pub concurrent_verdicts: u64,
    /// Largest history buffer this site ever held (high-water mark, not a
    /// sum — aggregation takes the max).
    pub hb_high_water: u64,
    /// History-buffer entries actually *touched* by concurrency scans.
    /// Equals [`SiteMetrics::concurrency_checks`] for full-scan sites; the
    /// suffix-bounded notifier and clients touch only the un-acked tail,
    /// so this stays far below the logical check count.
    pub scan_len_total: u64,
    /// Longest single scan (high-water mark; aggregation takes the max).
    pub scan_len_max: u64,
    /// Messages retransmitted by the reliability layer.
    pub retransmits: u64,
    /// Encoded bytes of those retransmissions (pure overhead).
    pub retransmit_bytes: u64,
    /// Incoming messages discarded as duplicates (seq already delivered).
    pub dup_drops: u64,
    /// Incoming messages discarded for a checksum mismatch.
    pub checksum_drops: u64,
    /// Incoming messages that arrived out of order and were held in the
    /// resequencing buffer before in-order delivery.
    pub resequenced: u64,
    /// Resync handshakes completed (client reconnections served).
    pub resyncs: u64,
    /// History-buffer operations replayed to rejoining clients.
    pub resync_replayed: u64,
    /// Application payload bytes the reliability layer delivered in order
    /// (goodput numerator; zero when the session runs without the layer).
    pub delivered_payload_bytes: u64,
    /// Bare client acknowledgements sent (GC keep-alives from quiet
    /// clients). Counted apart from [`SiteMetrics::messages_sent`] so the
    /// paper's per-*operation* overhead accounting stays comparable.
    pub acks_sent: u64,
    /// Encoded bytes of those bare acknowledgements.
    pub ack_bytes_sent: u64,
    /// Protocol violations detected on remote input (the offender was
    /// rejected — and, in sessions, quarantined — instead of panicking).
    pub protocol_errors: u64,
    /// Reliable data frames put on the wire (first transmissions only).
    /// With compound framing one frame can carry several editor messages,
    /// so this divides [`SiteMetrics::editor_msgs_sent`] to give the
    /// frames-per-op coalescing ratio.
    pub data_frames_sent: u64,
    /// Editor-layer messages handed to the reliability layer for sending.
    pub editor_msgs_sent: u64,
    /// Compound-frame batches flushed by the deadline timer rather than by
    /// an acknowledgement freeing the window. Non-zero means some batch sat
    /// parked long enough to hit [`crate::session::SessionConfig::
    /// compound_flush_ticks`]; the ack-driven path remains the normal case.
    pub deadline_flushes: u64,
}

impl SiteMetrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mean timestamp integers per sent message.
    pub fn stamp_integers_per_message(&self) -> f64 {
        if self.messages_sent == 0 {
            0.0
        } else {
            self.stamp_integers_sent as f64 / self.messages_sent as f64
        }
    }

    /// Mean timestamp bytes per sent message.
    pub fn stamp_bytes_per_message(&self) -> f64 {
        if self.messages_sent == 0 {
            0.0
        } else {
            self.stamp_bytes_sent as f64 / self.messages_sent as f64
        }
    }

    /// Fraction of sent bytes that were timestamp overhead.
    pub fn stamp_byte_fraction(&self) -> f64 {
        if self.bytes_sent == 0 {
            0.0
        } else {
            self.stamp_bytes_sent as f64 / self.bytes_sent as f64
        }
    }

    /// Mean history-buffer entries touched per remote operation executed.
    pub fn scan_len_per_op(&self) -> f64 {
        if self.ops_executed_remote == 0 {
            0.0
        } else {
            self.scan_len_total as f64 / self.ops_executed_remote as f64
        }
    }

    /// Record one concurrency scan over `touched` history entries.
    pub fn record_scan(&mut self, touched: u64) {
        self.scan_len_total += touched;
        self.scan_len_max = self.scan_len_max.max(touched);
    }

    /// Record the history-buffer length after an integration.
    pub fn record_hb_len(&mut self, len: u64) {
        self.hb_high_water = self.hb_high_water.max(len);
    }

    /// The canonical export/aggregation schema: every summable counter
    /// with its stable name, in declaration order. [`AddAssign`] and
    /// `MetricsRegistry::absorb_site_metrics` both walk this list, so
    /// adding a field here is the single step that propagates it into
    /// session aggregation and the machine-readable bench artifacts.
    pub fn counter_fields(&self) -> [(&'static str, u64); 24] {
        [
            ("ops_generated", self.ops_generated),
            ("ops_executed_remote", self.ops_executed_remote),
            ("messages_sent", self.messages_sent),
            ("bytes_sent", self.bytes_sent),
            ("stamp_bytes_sent", self.stamp_bytes_sent),
            ("stamp_integers_sent", self.stamp_integers_sent),
            ("transforms", self.transforms),
            ("concurrency_checks", self.concurrency_checks),
            ("concurrent_verdicts", self.concurrent_verdicts),
            ("scan_len_total", self.scan_len_total),
            ("retransmits", self.retransmits),
            ("retransmit_bytes", self.retransmit_bytes),
            ("dup_drops", self.dup_drops),
            ("checksum_drops", self.checksum_drops),
            ("resequenced", self.resequenced),
            ("resyncs", self.resyncs),
            ("resync_replayed", self.resync_replayed),
            ("delivered_payload_bytes", self.delivered_payload_bytes),
            ("acks_sent", self.acks_sent),
            ("ack_bytes_sent", self.ack_bytes_sent),
            ("protocol_errors", self.protocol_errors),
            ("data_frames_sent", self.data_frames_sent),
            ("editor_msgs_sent", self.editor_msgs_sent),
            ("deadline_flushes", self.deadline_flushes),
        ]
    }

    /// Mutable view of the summable counters, in [`SiteMetrics::
    /// counter_fields`] order (the two lists index the same fields).
    fn counter_fields_mut(&mut self) -> [&mut u64; 24] {
        [
            &mut self.ops_generated,
            &mut self.ops_executed_remote,
            &mut self.messages_sent,
            &mut self.bytes_sent,
            &mut self.stamp_bytes_sent,
            &mut self.stamp_integers_sent,
            &mut self.transforms,
            &mut self.concurrency_checks,
            &mut self.concurrent_verdicts,
            &mut self.scan_len_total,
            &mut self.retransmits,
            &mut self.retransmit_bytes,
            &mut self.dup_drops,
            &mut self.checksum_drops,
            &mut self.resequenced,
            &mut self.resyncs,
            &mut self.resync_replayed,
            &mut self.delivered_payload_bytes,
            &mut self.acks_sent,
            &mut self.ack_bytes_sent,
            &mut self.protocol_errors,
            &mut self.data_frames_sent,
            &mut self.editor_msgs_sent,
            &mut self.deadline_flushes,
        ]
    }

    /// High-water-mark fields with their stable names: aggregation takes
    /// the max of these, never the sum.
    pub fn high_water_fields(&self) -> [(&'static str, u64); 2] {
        [
            ("hb_high_water", self.hb_high_water),
            ("scan_len_max", self.scan_len_max),
        ]
    }

    /// True when any reliability-layer counter is non-zero.
    pub fn has_robustness_activity(&self) -> bool {
        self.retransmits != 0
            || self.retransmit_bytes != 0
            || self.dup_drops != 0
            || self.checksum_drops != 0
            || self.resequenced != 0
            || self.resyncs != 0
            || self.resync_replayed != 0
    }

    /// One-line human summary of the robustness counters, or `None` when
    /// the reliability layer never had to intervene.
    pub fn robustness_summary(&self) -> Option<String> {
        if !self.has_robustness_activity() {
            return None;
        }
        Some(format!(
            "retx {} ({} B) · dup-drop {} · cksum-drop {} · reseq {} · resync {} ({} ops replayed)",
            self.retransmits,
            self.retransmit_bytes,
            self.dup_drops,
            self.checksum_drops,
            self.resequenced,
            self.resyncs,
            self.resync_replayed,
        ))
    }
}

impl AddAssign for SiteMetrics {
    fn add_assign(&mut self, o: Self) {
        for (dst, (_, v)) in self
            .counter_fields_mut()
            .into_iter()
            .zip(o.counter_fields())
        {
            *dst += v;
        }
        // High-water marks aggregate by max, not sum.
        self.hb_high_water = self.hb_high_water.max(o.hb_high_water);
        self.scan_len_max = self.scan_len_max.max(o.scan_len_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let m = SiteMetrics::new();
        assert_eq!(m.stamp_integers_per_message(), 0.0);
        assert_eq!(m.stamp_bytes_per_message(), 0.0);
        assert_eq!(m.stamp_byte_fraction(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let m = SiteMetrics {
            messages_sent: 4,
            bytes_sent: 100,
            stamp_bytes_sent: 20,
            stamp_integers_sent: 8,
            ..SiteMetrics::default()
        };
        assert_eq!(m.stamp_integers_per_message(), 2.0);
        assert_eq!(m.stamp_bytes_per_message(), 5.0);
        assert!((m.stamp_byte_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn add_assign_sums_fields() {
        let mut a = SiteMetrics {
            ops_generated: 1,
            transforms: 2,
            ..SiteMetrics::default()
        };
        let b = SiteMetrics {
            ops_generated: 3,
            concurrency_checks: 5,
            ..SiteMetrics::default()
        };
        a += b;
        assert_eq!(a.ops_generated, 4);
        assert_eq!(a.transforms, 2);
        assert_eq!(a.concurrency_checks, 5);
    }

    #[test]
    fn scan_counters_track_totals_and_high_water() {
        let mut m = SiteMetrics::new();
        m.record_scan(3);
        m.record_scan(7);
        m.record_scan(2);
        m.record_hb_len(5);
        m.record_hb_len(4);
        assert_eq!(m.scan_len_total, 12);
        assert_eq!(m.scan_len_max, 7);
        assert_eq!(m.hb_high_water, 5);
        m.ops_executed_remote = 3;
        assert_eq!(m.scan_len_per_op(), 4.0);
    }

    #[test]
    fn robustness_counters_sum_and_summarise() {
        let mut a = SiteMetrics {
            retransmits: 2,
            retransmit_bytes: 40,
            dup_drops: 1,
            ..SiteMetrics::default()
        };
        let b = SiteMetrics {
            retransmits: 3,
            checksum_drops: 1,
            resequenced: 4,
            resyncs: 1,
            resync_replayed: 7,
            ..SiteMetrics::default()
        };
        a += b;
        assert_eq!(a.retransmits, 5);
        assert_eq!(a.retransmit_bytes, 40);
        assert_eq!(a.dup_drops, 1);
        assert_eq!(a.checksum_drops, 1);
        assert_eq!(a.resequenced, 4);
        assert_eq!(a.resyncs, 1);
        assert_eq!(a.resync_replayed, 7);
        assert!(a.has_robustness_activity());
        let line = a.robustness_summary().expect("active");
        assert!(line.contains("retx 5"), "{line}");
        assert!(line.contains("resync 1 (7 ops replayed)"), "{line}");
        assert_eq!(SiteMetrics::new().robustness_summary(), None);
    }

    #[test]
    fn add_assign_maxes_high_water_marks() {
        let mut a = SiteMetrics {
            hb_high_water: 10,
            scan_len_total: 4,
            scan_len_max: 3,
            ..SiteMetrics::default()
        };
        let b = SiteMetrics {
            hb_high_water: 6,
            scan_len_total: 5,
            scan_len_max: 8,
            ..SiteMetrics::default()
        };
        a += b;
        assert_eq!(a.hb_high_water, 10, "high-water marks take the max");
        assert_eq!(a.scan_len_total, 9, "totals sum");
        assert_eq!(a.scan_len_max, 8);
    }
}
