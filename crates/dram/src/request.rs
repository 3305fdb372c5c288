//! Memory requests and completions exchanged with the controller.

/// Direction of a memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqKind {
    /// A line fill (LLC miss or metadata fetch).
    Read,
    /// A line writeback.
    Write,
}

/// One cache-line-granularity request presented to the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Caller-assigned identifier, echoed in the [`Completion`]. The
    /// controller never reads it, so ids need not be unique.
    pub id: u64,
    /// Read or write.
    pub kind: ReqKind,
    /// Physical byte address (line-aligned internally).
    pub addr: u64,
    /// Memory-clock cycle at which the request entered the queue.
    pub enqueue_cycle: u64,
}

impl MemRequest {
    /// Convenience constructor.
    pub fn new(id: u64, kind: ReqKind, addr: u64, enqueue_cycle: u64) -> Self {
        Self {
            id,
            kind,
            addr,
            enqueue_cycle,
        }
    }
}

/// Completion record returned by [`crate::DramSystem::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Identifier of the completed request.
    pub id: u64,
    /// Read or write.
    pub kind: ReqKind,
    /// Memory-clock cycle at which the last data beat transferred.
    pub finish_cycle: u64,
    /// Cycle the request was enqueued (for latency accounting).
    pub enqueue_cycle: u64,
}

impl Completion {
    /// Queueing + service latency in memory-clock cycles.
    pub fn latency(&self) -> u64 {
        self.finish_cycle.saturating_sub(self.enqueue_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_latency() {
        let c = Completion {
            id: 1,
            kind: ReqKind::Read,
            finish_cycle: 100,
            enqueue_cycle: 40,
        };
        assert_eq!(c.latency(), 60);
    }
}
