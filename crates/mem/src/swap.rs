//! A swap device model: the slow paging backend default Linux reclaims to.
//!
//! The paper's key observation (§4.1, §5.1) is that paging cold memory out
//! to a swap device is orders of magnitude slower than migrating it to a
//! CXL node. The device here is deliberately simple — a slot store with
//! occupancy accounting — while its *cost* (latency, bandwidth) lives in
//! the simulator's latency model.

use std::collections::HashMap;

use crate::error::SwapError;
use crate::types::PageKey;

/// Identifier of an occupied swap slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SwapSlot(pub u64);

/// A fixed-capacity swap device.
///
/// # Examples
///
/// ```
/// use tiered_mem::{PageKey, Pid, SwapDevice, Vpn};
///
/// let mut swap = SwapDevice::new(1024);
/// let key = PageKey::new(Pid(1), Vpn(7));
/// let slot = swap.swap_out(key)?;
/// assert_eq!(swap.used_slots(), 1);
/// assert_eq!(swap.swap_in(slot)?, key);
/// assert_eq!(swap.used_slots(), 0);
/// # Ok::<(), tiered_mem::SwapError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SwapDevice {
    capacity: u64,
    slots: HashMap<u64, PageKey>,
    next_slot: u64,
}

impl SwapDevice {
    /// Creates a swap device with room for `capacity` pages.
    pub fn new(capacity: u64) -> SwapDevice {
        SwapDevice {
            capacity,
            slots: HashMap::new(),
            next_slot: 0,
        }
    }

    /// Total slot capacity in pages.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Currently occupied slots.
    #[inline]
    pub fn used_slots(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Writes a page out, returning the slot that now holds it.
    ///
    /// # Errors
    ///
    /// [`SwapError::Full`] if no slot is free.
    pub fn swap_out(&mut self, owner: PageKey) -> Result<SwapSlot, SwapError> {
        if self.used_slots() >= self.capacity {
            return Err(SwapError::Full);
        }
        let slot = self.next_slot;
        self.next_slot += 1;
        self.slots.insert(slot, owner);
        Ok(SwapSlot(slot))
    }

    /// Reads a page back in, freeing its slot and returning the owner.
    /// It also frees a slot without a read (e.g. the owning process
    /// exited).
    ///
    /// # Errors
    ///
    /// [`SwapError::BadSlot`] if the slot is empty or unknown.
    pub fn swap_in(&mut self, slot: SwapSlot) -> Result<PageKey, SwapError> {
        self.slots.remove(&slot.0).ok_or(SwapError::BadSlot)
    }

    /// The owner a slot holds, if occupied.
    pub(crate) fn peek(&self, slot: SwapSlot) -> Option<PageKey> {
        self.slots.get(&slot.0).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Pid, Vpn};

    fn key(v: u64) -> PageKey {
        PageKey::new(Pid(1), Vpn(v))
    }

    #[test]
    fn swap_out_in_round_trip() {
        let mut dev = SwapDevice::new(2);
        let s0 = dev.swap_out(key(0)).unwrap();
        let s1 = dev.swap_out(key(1)).unwrap();
        assert_ne!(s0, s1);
        assert_eq!(dev.swap_in(s0).unwrap(), key(0));
        assert_eq!(dev.swap_in(s1).unwrap(), key(1));
        assert_eq!(dev.used_slots(), 0);
    }

    #[test]
    fn full_device_rejects_swap_out() {
        let mut dev = SwapDevice::new(1);
        dev.swap_out(key(0)).unwrap();
        assert_eq!(dev.swap_out(key(1)), Err(SwapError::Full));
        // After freeing a slot it works again.
        let slot = SwapSlot(0);
        dev.swap_in(slot).unwrap();
        assert!(dev.swap_out(key(1)).is_ok());
    }

    #[test]
    fn swap_in_unknown_slot_fails() {
        let mut dev = SwapDevice::new(4);
        assert_eq!(dev.swap_in(SwapSlot(99)), Err(SwapError::BadSlot));
        let s = dev.swap_out(key(0)).unwrap();
        dev.swap_in(s).unwrap();
        // Slots are not reusable once consumed.
        assert_eq!(dev.swap_in(s), Err(SwapError::BadSlot));
    }

    #[test]
    fn discard_frees_the_slot() {
        let mut dev = SwapDevice::new(4);
        let s = dev.swap_out(key(3)).unwrap();
        assert_eq!(dev.peek(s), Some(key(3)));
        assert_eq!(dev.swap_in(s).unwrap(), key(3));
        assert_eq!(dev.used_slots(), 0);
    }

    #[test]
    fn zero_capacity_device_always_full() {
        let mut dev = SwapDevice::new(0);
        assert_eq!(dev.swap_out(key(0)), Err(SwapError::Full));
        assert_eq!(dev.used_slots(), 0);
    }
}
