//! # relink — what a fork of a prepared world re-points
//!
//! A world with a checkpointer in it is more than a [`crate::Kernel`]: the
//! kernel's modules, the mechanism driving them and the stable storage both
//! write to are linked by shared handles (`Arc`s), and every layer of the
//! storage stack consults the world's fault handle. A [`Relink`] is the one
//! map a fork of such a world goes through, so that the copy is wired the
//! way the original was and never to the original itself:
//!
//! * each shared `Arc` of the original maps to exactly one fresh copy, made
//!   the first time any holder asks for it — two holders of one store in
//!   the original hold one store in the fork;
//! * every forked layer consults [`Relink::faults`], the handle the fork
//!   runs under.
//!
//! What is not world state is not copied: trace sinks and encode pools are
//! executors and observers, and a fork keeps the original's.

use crate::faultpoint::FaultHandle;
use crate::types::SimResult;
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The map one fork of a world goes through. See the module docs.
pub struct Relink {
    faults: FaultHandle,
    /// Per original `Arc` (by address): the original, kept alive so its
    /// address cannot be reused while the map exists, and its copy.
    copies: BTreeMap<usize, Box<dyn Any>>,
}

impl Relink {
    /// A fork whose layers will consult `faults`.
    pub fn new(faults: FaultHandle) -> Self {
        Relink {
            faults,
            copies: BTreeMap::new(),
        }
    }

    /// The fault handle every forked layer consults.
    pub fn faults(&self) -> &FaultHandle {
        &self.faults
    }

    /// The fork's copy of `original`: `fork` makes it the first time any
    /// holder asks, every later holder gets the same copy.
    pub fn shared<T: ?Sized + 'static>(
        &mut self,
        original: &Arc<T>,
        fork: impl FnOnce(&T, &mut Relink) -> SimResult<Arc<T>>,
    ) -> SimResult<Arc<T>> {
        let at = Arc::as_ptr(original) as *const () as usize;
        if let Some(pair) = self.copies.get(&at) {
            let (_, copy) = pair
                .downcast_ref::<(Arc<T>, Arc<T>)>()
                .expect("one address, one type");
            return Ok(copy.clone());
        }
        let copy = fork(original, self)?;
        self.copies
            .insert(at, Box::new((original.clone(), copy.clone())));
        Ok(copy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SimError;
    use std::sync::Mutex;

    #[test]
    fn one_original_maps_to_one_copy_and_never_to_itself() {
        let a = Arc::new(Mutex::new(1));
        let b = Arc::new(Mutex::new(2));
        let mut relink = Relink::new(FaultHandle::disabled());
        let copy = |m: &Mutex<i32>, _: &mut Relink| {
            Ok(Arc::new(Mutex::new(*m.lock().unwrap())))
        };
        let a1 = relink.shared(&a, copy).unwrap();
        let a2 = relink.shared(&a.clone(), copy).unwrap();
        let b1 = relink.shared(&b, copy).unwrap();
        assert!(Arc::ptr_eq(&a1, &a2), "two holders, one copy");
        assert!(!Arc::ptr_eq(&a1, &a) && !Arc::ptr_eq(&a1, &b1));
        *a1.lock().unwrap() = 7;
        assert_eq!(*a.lock().unwrap(), 1, "the copy shares nothing");
        assert_eq!(*b1.lock().unwrap(), 2);
    }

    #[test]
    fn a_refused_copy_is_not_remembered() {
        let a = Arc::new(3u8);
        let mut relink = Relink::new(FaultHandle::disabled());
        let refuse = |_: &u8, _: &mut Relink| {
            Err(SimError::WorldNotForkable {
                holder: "a test".into(),
            })
        };
        assert!(relink.shared(&a, refuse).is_err());
        let copy = relink.shared(&a, |v, _| Ok(Arc::new(*v))).unwrap();
        assert_eq!(*copy, 3);
    }
}
