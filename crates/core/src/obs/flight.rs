//! Always-on flight recorder: a lock-free bounded ring of structured
//! pipeline events for post-mortems.
//!
//! The metrics registry and tracer answer "how is the store doing on
//! average"; the flight recorder answers "what happened in the seconds
//! before this stall/panic". It is **always on** — unlike the rest of
//! `obs` it is not gated by [`super::ObsConfig::enabled`], because a
//! post-mortem must not require reproducing the incident under
//! `IMP_OBS=1`. That is affordable because the hot path is a ticket
//! `fetch_add`, one compare-and-swap, and a handful of relaxed atomic
//! stores into a fixed slot: no locks, no allocation (asserted by
//! `tests/flight_stress.rs`'s counting allocator), and no waiting except
//! in the rare case, described below, of a writer a full lap behind.
//!
//! # Protocol
//!
//! Each slot is guarded by a seqlock-style stamp. The writer for ticket
//! `t` (slot `t % cap`, `cap` a power of two):
//!
//! 1. claims the slot by a compare-and-swap of the stamp to the odd
//!    value `2t+1` (`Acquire`), then issues a `Release` fence,
//! 2. stores the payload fields (relaxed),
//! 3. stores the even stamp `2t+2` with `Release`.
//!
//! The claim advances only from an even stamp below `2t+1`: an empty
//! slot or a finished event of an earlier lap. A stamp of `2t+1` or
//! more means a writer of a later lap has already claimed the slot —
//! this writer was preempted between taking its ticket and claiming,
//! and was *lapped*. It drops its event and counts it in
//! [`FlightRecorder::dropped`] rather than overwrite newer data. An odd
//! stamp below `2t+1` means a writer of an earlier lap is still
//! mid-write; the claim spins (yielding) until that writer publishes.
//! So at most one writer owns a slot at a time, which is what the
//! seqlock argument below relies on, and a slot's stamp never moves
//! backwards.
//!
//! A reader loads the stamp with `Acquire` and skips the slot unless it
//! equals `2t+2`; it then reads the fields (relaxed), issues an `Acquire`
//! fence, and re-loads the stamp — the slot is accepted only when the
//! stamp is unchanged. If any field load observed a store from a later
//! (or in-flight) writer, that writer's odd stamp is ordered before its
//! field stores by the release fence, so the re-load cannot still see
//! `2t+2`: torn slots are *detected*, never emitted. Dumps are therefore
//! deterministic snapshots of fully formed events, ordered by ticket.
//!
//! String identities (table and template names) are carried as stable
//! FNV-1a hashes ([`fid`]) so recording never allocates; dumps expose the
//! hashes, which correlate with `/metrics` labels via the same hash
//! printed by `/sketches`.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

/// Default ring capacity (slots, power of two).
pub const DEFAULT_FLIGHT_CAP: usize = 4096;

/// Stable 64-bit FNV-1a hash of a string identity (table or template
/// text). Allocation-free; the same function everywhere, so flight dumps,
/// `/sketches`, and tests agree on ids.
#[inline]
pub fn fid(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One structured pipeline event (plain stack value; see the kind-specific
/// field meanings on each variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEvent {
    /// An update batch entered staging (or fell back inline).
    Staged {
        /// [`fid`] of the base table.
        table: u64,
        /// 1 when queued, 0 when backpressure forced inline ingest.
        queued: u64,
    },
    /// The router collected one table's staged deltas.
    Routed {
        /// [`fid`] of the base table.
        table: u64,
        /// Delta rows routed.
        rows: u64,
        /// Distinct destination shards.
        shards: u64,
    },
    /// A worker claimed a run from its own inbox.
    Claimed {
        /// Inbox the run came from.
        shard: u64,
        /// Claiming worker.
        worker: u64,
        /// Batches in the run.
        batches: u64,
    },
    /// A thief claimed a run from another shard's inbox.
    Stolen {
        /// Inbox the run came from.
        shard: u64,
        /// Thief worker.
        worker: u64,
        /// Batches in the run.
        batches: u64,
    },
    /// One sketch maintenance run finished.
    Maintained {
        /// [`fid`] of the canonical template text.
        template: u64,
        /// Database version span covered: `from` in the high 32 bits,
        /// `to` in the low 32 (0 when unknown, e.g. inline maintains).
        versions: u64,
        /// Delta rows consumed.
        rows: u64,
        /// Wall-clock nanoseconds of the run.
        dur_ns: u64,
    },
    /// A shard published a fresh snapshot onto the board.
    Published {
        /// Publishing shard.
        shard: u64,
        /// Sketch entries in the snapshot.
        sketches: u64,
        /// Board epoch after the publish.
        epoch: u64,
    },
}

impl FlightEvent {
    /// Numeric kind tag (stable across releases; 0 means "empty slot").
    fn kind(&self) -> u64 {
        match self {
            FlightEvent::Staged { .. } => 1,
            FlightEvent::Routed { .. } => 2,
            FlightEvent::Claimed { .. } => 3,
            FlightEvent::Stolen { .. } => 4,
            FlightEvent::Maintained { .. } => 5,
            FlightEvent::Published { .. } => 6,
        }
    }

    /// Kind name used in dumps.
    pub fn kind_name(&self) -> &'static str {
        match self {
            FlightEvent::Staged { .. } => "staged",
            FlightEvent::Routed { .. } => "routed",
            FlightEvent::Claimed { .. } => "claimed",
            FlightEvent::Stolen { .. } => "stolen",
            FlightEvent::Maintained { .. } => "maintained",
            FlightEvent::Published { .. } => "published",
        }
    }

    /// Flatten into the four generic payload words.
    fn payload(&self) -> [u64; 4] {
        match *self {
            FlightEvent::Staged { table, queued } => [table, queued, 0, 0],
            FlightEvent::Routed {
                table,
                rows,
                shards,
            } => [table, rows, shards, 0],
            FlightEvent::Claimed {
                shard,
                worker,
                batches,
            }
            | FlightEvent::Stolen {
                shard,
                worker,
                batches,
            } => [shard, worker, batches, 0],
            FlightEvent::Maintained {
                template,
                versions,
                rows,
                dur_ns,
            } => [template, versions, rows, dur_ns],
            FlightEvent::Published {
                shard,
                sketches,
                epoch,
            } => [shard, sketches, epoch, 0],
        }
    }

    /// Rebuild from a kind tag and payload words (inverse of
    /// [`Self::payload`]); `None` on an unknown tag.
    fn from_slot(kind: u64, p: [u64; 4]) -> Option<FlightEvent> {
        Some(match kind {
            1 => FlightEvent::Staged {
                table: p[0],
                queued: p[1],
            },
            2 => FlightEvent::Routed {
                table: p[0],
                rows: p[1],
                shards: p[2],
            },
            3 => FlightEvent::Claimed {
                shard: p[0],
                worker: p[1],
                batches: p[2],
            },
            4 => FlightEvent::Stolen {
                shard: p[0],
                worker: p[1],
                batches: p[2],
            },
            5 => FlightEvent::Maintained {
                template: p[0],
                versions: p[1],
                rows: p[2],
                dur_ns: p[3],
            },
            6 => FlightEvent::Published {
                shard: p[0],
                sketches: p[1],
                epoch: p[2],
            },
            _ => return None,
        })
    }

    /// Named fields for the JSON dump, in emission order.
    fn fields(&self) -> [(&'static str, u64); 4] {
        let p = self.payload();
        let names: [&'static str; 4] = match self {
            FlightEvent::Staged { .. } => ["table", "queued", "", ""],
            FlightEvent::Routed { .. } => ["table", "rows", "shards", ""],
            FlightEvent::Claimed { .. } | FlightEvent::Stolen { .. } => {
                ["shard", "worker", "batches", ""]
            }
            FlightEvent::Maintained { .. } => ["template", "versions", "rows", "dur_ns"],
            FlightEvent::Published { .. } => ["shard", "sketches", "epoch", ""],
        };
        [
            (names[0], p[0]),
            (names[1], p[1]),
            (names[2], p[2]),
            (names[3], p[3]),
        ]
    }
}

/// A fully formed event read back out of the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// Global sequence number (monotonic across the recorder's lifetime).
    pub ticket: u64,
    /// Nanoseconds since the recorder's epoch (its construction instant).
    pub t_ns: u64,
    /// The event payload.
    pub event: FlightEvent,
}

/// One ring slot: seqlock stamp + timestamp + kind + 4 payload words.
#[derive(Debug, Default)]
struct Slot {
    seq: AtomicU64,
    t_ns: AtomicU64,
    kind: AtomicU64,
    p: [AtomicU64; 4],
}

/// The always-on bounded event ring (see the module docs).
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    head: AtomicU64,
    dropped: AtomicU64,
    epoch: Instant,
}

impl FlightRecorder {
    /// Ring with `cap` slots (rounded up to a power of two, min 64).
    pub fn new(cap: usize) -> FlightRecorder {
        let cap = cap.max(64).next_power_of_two();
        FlightRecorder {
            slots: (0..cap).map(|_| Slot::default()).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events recorded over the recorder's lifetime (including ones the
    /// ring has since overwritten).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events a lapped writer dropped instead of overwriting a newer
    /// event in its slot (see the module docs).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Record one event. Allocation-free: one `fetch_add`, one claiming
    /// compare-and-swap, and a fixed number of relaxed stores. Safe to
    /// call from any thread at any time, including with readers dumping
    /// concurrently.
    #[inline]
    pub fn record(&self, event: FlightEvent) {
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
        let claim = 2 * ticket + 1;
        let mut stamp = slot.seq.load(Ordering::Relaxed);
        let mut spins = 0u32;
        loop {
            if stamp >= claim {
                // Lapped: a later writer owns the slot.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if stamp % 2 == 1 {
                // An earlier lap's writer is mid-write.
                spins += 1;
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
                stamp = slot.seq.load(Ordering::Relaxed);
                continue;
            }
            // Acquire: the previous owner's payload stores happen before
            // ours, so ours come later in every field's modification order.
            match slot
                .seq
                .compare_exchange_weak(stamp, claim, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => stamp = now,
            }
        }
        // Odd stamp: slot under construction. The release fence orders it
        // before every payload store, so a reader that observes any of
        // our payload writes cannot still read the previous even stamp.
        fence(Ordering::Release);
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.kind.store(event.kind(), Ordering::Relaxed);
        let p = event.payload();
        for (dst, v) in slot.p.iter().zip(p) {
            dst.store(v, Ordering::Relaxed);
        }
        // Even stamp: slot complete, released so readers see the payload.
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// All fully formed events currently retained, newest-window-filtered:
    /// only events with `t_ns` within the last `window_ns` of the
    /// recorder's clock are returned (pass `u64::MAX` for everything
    /// retained). Sorted by ticket (emission order). Slots that are empty,
    /// mid-write, or overwritten during the read are skipped — never torn.
    pub fn events(&self, window_ns: u64) -> Vec<FlightRecord> {
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        let cutoff = now_ns.saturating_sub(window_ns);
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for ticket in start..head {
            let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != 2 * ticket + 2 {
                continue; // empty, mid-write, or already recycled
            }
            let t_ns = slot.t_ns.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let p = [
                slot.p[0].load(Ordering::Relaxed),
                slot.p[1].load(Ordering::Relaxed),
                slot.p[2].load(Ordering::Relaxed),
                slot.p[3].load(Ordering::Relaxed),
            ];
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // overwritten mid-read: reject, never tear
            }
            let Some(event) = FlightEvent::from_slot(kind, p) else {
                continue;
            };
            if t_ns < cutoff {
                continue;
            }
            out.push(FlightRecord {
                ticket,
                t_ns,
                event,
            });
        }
        out
    }

    /// Deterministic JSON dump of [`Self::events`] plus ring metadata:
    /// `{"flight":{"cap":…,"recorded":…,"dropped":…,"window_ns":…,"events":[…]}}`,
    /// events sorted by ticket, each with `ticket`, `t_ns`, `kind`, and
    /// its kind-specific numeric fields.
    pub fn dump_json(&self, window_ns: u64) -> String {
        let events = self.events(window_ns);
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str("{\"flight\":{\"cap\":");
        out.push_str(&self.capacity().to_string());
        out.push_str(",\"recorded\":");
        out.push_str(&self.recorded().to_string());
        out.push_str(",\"dropped\":");
        out.push_str(&self.dropped().to_string());
        out.push_str(",\"window_ns\":");
        out.push_str(&window_ns.to_string());
        out.push_str(",\"events\":[");
        for (i, rec) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"ticket\":");
            out.push_str(&rec.ticket.to_string());
            out.push_str(",\"t_ns\":");
            out.push_str(&rec.t_ns.to_string());
            out.push_str(",\"kind\":\"");
            out.push_str(rec.event.kind_name());
            out.push('"');
            for (name, v) in rec.event.fields() {
                if name.is_empty() {
                    continue;
                }
                out.push_str(",\"");
                out.push_str(name);
                out.push_str("\":");
                out.push_str(&v.to_string());
            }
            out.push('}');
        }
        out.push_str("]}}");
        out
    }
}

/// Recorders the panic hook dumps (weak: a dropped `Imp` unregisters
/// itself by expiring).
fn panic_registry() -> &'static Mutex<Vec<Weak<FlightRecorder>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Weak<FlightRecorder>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Register a recorder with the process-wide panic hook (installed once,
/// chaining the previous hook). On panic, every live registered recorder
/// dumps its full ring to stderr — so a wedged-shard post-mortem has the
/// last seconds of pipeline history without any reproduction run.
pub fn register_panic_dump(recorder: &Arc<FlightRecorder>) {
    static INSTALL: OnceLock<()> = OnceLock::new();
    INSTALL.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            let mut registry = match panic_registry().lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            registry.retain(|w| w.strong_count() > 0);
            for weak in registry.iter() {
                if let Some(rec) = weak.upgrade() {
                    eprintln!("[imp] flight dump at panic: {}", rec.dump_json(u64::MAX));
                }
            }
        }));
    });
    let mut registry = match panic_registry().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    registry.retain(|w| w.strong_count() > 0);
    registry.push(Arc::downgrade(recorder));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_back_in_order() {
        let fr = FlightRecorder::new(64);
        for i in 0..10u64 {
            fr.record(FlightEvent::Routed {
                table: fid("t"),
                rows: i,
                shards: 1,
            });
        }
        let events = fr.events(u64::MAX);
        assert_eq!(events.len(), 10);
        for (i, rec) in events.iter().enumerate() {
            assert_eq!(rec.ticket, i as u64);
            assert_eq!(
                rec.event,
                FlightEvent::Routed {
                    table: fid("t"),
                    rows: i as u64,
                    shards: 1,
                }
            );
        }
    }

    #[test]
    fn ring_retains_only_last_cap_events() {
        let fr = FlightRecorder::new(64);
        let cap = fr.capacity() as u64;
        for i in 0..cap + 17 {
            fr.record(FlightEvent::Published {
                shard: 0,
                sketches: i,
                epoch: i,
            });
        }
        let events = fr.events(u64::MAX);
        assert_eq!(events.len(), fr.capacity());
        assert_eq!(events.first().unwrap().ticket, 17);
        assert_eq!(events.last().unwrap().ticket, cap + 16);
        assert_eq!(fr.recorded(), cap + 17);
    }

    #[test]
    fn lapped_writer_drops_instead_of_overwriting() {
        let fr = FlightRecorder::new(64);
        let cap = fr.capacity() as u64;
        // Ticket `cap` finished in slot 0 while ticket 0's writer was
        // preempted before claiming it.
        fr.slots[0].seq.store(2 * cap + 2, Ordering::Relaxed);
        fr.record(FlightEvent::Staged {
            table: fid("late"),
            queued: 1,
        });
        assert_eq!(fr.dropped(), 1);
        assert_eq!(fr.slots[0].seq.load(Ordering::Relaxed), 2 * cap + 2);
        assert_eq!(fr.slots[0].kind.load(Ordering::Relaxed), 0);
        // The next ticket's slot is untouched by the lap and records.
        fr.record(FlightEvent::Staged {
            table: fid("next"),
            queued: 1,
        });
        assert_eq!(fr.dropped(), 1);
        assert_eq!(fr.events(u64::MAX).len(), 1);
        assert!(fr.dump_json(u64::MAX).contains("\"dropped\":1,"));
    }

    #[test]
    fn window_filters_by_time() {
        let fr = FlightRecorder::new(64);
        fr.record(FlightEvent::Staged {
            table: fid("a"),
            queued: 1,
        });
        // A zero-width window drops everything already recorded …
        assert!(fr.events(0).is_empty());
        // … while the max window keeps it.
        assert_eq!(fr.events(u64::MAX).len(), 1);
    }

    #[test]
    fn dump_json_shape() {
        let fr = FlightRecorder::new(64);
        fr.record(FlightEvent::Maintained {
            template: fid("q1"),
            versions: (3 << 32) | 4,
            rows: 100,
            dur_ns: 12345,
        });
        let json = fr.dump_json(u64::MAX);
        assert!(json.starts_with("{\"flight\":{\"cap\":64,\"recorded\":1,"));
        assert!(json.contains("\"kind\":\"maintained\""));
        assert!(json.contains("\"rows\":100"));
        assert!(json.contains("\"dur_ns\":12345"));
        assert!(json.contains(&format!("\"template\":{}", fid("q1"))));
    }

    #[test]
    fn event_roundtrip_all_kinds() {
        let all = [
            FlightEvent::Staged {
                table: 7,
                queued: 0,
            },
            FlightEvent::Routed {
                table: 7,
                rows: 8,
                shards: 2,
            },
            FlightEvent::Claimed {
                shard: 1,
                worker: 1,
                batches: 3,
            },
            FlightEvent::Stolen {
                shard: 0,
                worker: 1,
                batches: 2,
            },
            FlightEvent::Maintained {
                template: 9,
                versions: 5,
                rows: 6,
                dur_ns: 7,
            },
            FlightEvent::Published {
                shard: 2,
                sketches: 4,
                epoch: 11,
            },
        ];
        let fr = FlightRecorder::new(64);
        for e in all {
            fr.record(e);
        }
        let back: Vec<FlightEvent> = fr.events(u64::MAX).iter().map(|r| r.event).collect();
        assert_eq!(back, all);
    }

    #[test]
    fn fid_is_stable_and_distinguishes() {
        assert_eq!(fid("orders"), fid("orders"));
        assert_ne!(fid("orders"), fid("lineitem"));
        // FNV-1a of the empty string.
        assert_eq!(fid(""), 0xcbf2_9ce4_8422_2325);
    }
}
