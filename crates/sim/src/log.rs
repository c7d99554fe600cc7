//! Typed event logging.
//!
//! The prototype in the paper writes relay status logs and VM-management
//! logs that §6.2 later mines for Table 6. [`EventLog`] is the simulation's
//! equivalent: a chronological record of typed events with a counting
//! helper.

use core::fmt;

use crate::time::SimTime;

/// A timestamped event record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry<E> {
    /// When the event occurred.
    pub time: SimTime,
    /// The event payload.
    pub event: E,
}

/// An append-only, chronologically ordered log of typed events.
///
/// # Examples
///
/// ```
/// use ins_sim::log::EventLog;
/// use ins_sim::time::SimTime;
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { RelayClosed(u8), ServerOff }
///
/// let mut log = EventLog::new();
/// log.push(SimTime::from_secs(10), Ev::RelayClosed(1));
/// log.push(SimTime::from_secs(20), Ev::ServerOff);
/// assert_eq!(log.count(|e| matches!(e, Ev::RelayClosed(_))), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EventLog<E> {
    entries: Vec<LogEntry<E>>,
}

impl<E> EventLog<E> {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `time` precedes the last logged event.
    pub fn push(&mut self, time: SimTime, event: E) {
        debug_assert!(
            self.entries.last().is_none_or(|e| e.time <= time),
            "event log receded in time"
        );
        self.entries.push(LogEntry { time, event });
    }

    /// Number of logged events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been logged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries in chronological order.
    #[must_use]
    pub fn entries(&self) -> &[LogEntry<E>] {
        &self.entries
    }

    /// Iterates over entries.
    pub fn iter(&self) -> core::slice::Iter<'_, LogEntry<E>> {
        self.entries.iter()
    }

    /// Counts events matching a predicate.
    pub fn count(&self, mut pred: impl FnMut(&E) -> bool) -> usize {
        self.entries.iter().filter(|e| pred(&e.event)).count()
    }
}

impl<E> Default for EventLog<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Extend<LogEntry<E>> for EventLog<E> {
    /// Extends the log; entries must already be in chronological order.
    fn extend<T: IntoIterator<Item = LogEntry<E>>>(&mut self, iter: T) {
        for entry in iter {
            self.push(entry.time, entry.event);
        }
    }
}

impl<'a, E> IntoIterator for &'a EventLog<E> {
    type Item = &'a LogEntry<E>;
    type IntoIter = core::slice::Iter<'a, LogEntry<E>>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

impl<E: fmt::Display> fmt::Display for EventLog<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for entry in &self.entries {
            writeln!(f, "[{}] {}", entry.time, entry.event)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        A,
        B(u32),
    }

    #[test]
    fn push_count_filter() {
        let mut log = EventLog::new();
        log.push(SimTime::from_secs(1), Ev::A);
        log.push(SimTime::from_secs(5), Ev::B(2));
        log.push(SimTime::from_secs(9), Ev::B(3));
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
        assert_eq!(log.count(|e| matches!(e, Ev::B(_))), 2);
    }

    #[test]
    fn default_and_iter() {
        let log: EventLog<Ev> = EventLog::default();
        assert!(log.is_empty());
        assert_eq!(log.iter().count(), 0);
    }

    #[test]
    fn extend_appends_in_order() {
        let mut log = EventLog::new();
        log.extend([
            LogEntry {
                time: SimTime::from_secs(1),
                event: Ev::A,
            },
            LogEntry {
                time: SimTime::from_secs(2),
                event: Ev::B(1),
            },
        ]);
        assert_eq!(log.len(), 2);
        assert_eq!((&log).into_iter().count(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "event log receded in time")]
    fn out_of_order_push_panics_in_debug() {
        let mut log = EventLog::new();
        log.push(SimTime::from_secs(10), Ev::A);
        log.push(SimTime::from_secs(5), Ev::A);
    }
}
