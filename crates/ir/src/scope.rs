//! Scoped environments: extend a table for the extent of one binder, then
//! put back what the binder shadowed.
//!
//! Every pass from source text to the certified program walks a tree of
//! binders. Copying the whole environment at each binder makes a pass
//! quadratic in the number of binders; binding in place and restoring on
//! the way out keeps it linear. [`Scope`] is the one insert/restore step
//! every pass uses. [`scoped`] runs a body between the two for a pass
//! whose environment is one table; a context made of several tables binds
//! into the one it needs, runs the body into a local and unbinds, so the
//! restore happens on every exit path — an `Err` is returned only after
//! its binding has been taken back.
//!
//! # Examples
//!
//! ```
//! use std::collections::HashMap;
//! use ps_ir::scope::{scoped, Scope};
//!
//! let mut env: HashMap<&str, i32> = HashMap::from([("x", 1)]);
//! let inner = scoped(&mut env, "x", 2, |env| env["x"]);
//! assert_eq!(inner, 2);
//! assert_eq!(env["x"], 1, "the shadowed binding is back");
//!
//! let shadowed = env.bind("x", 3);
//! let seen = env["x"];
//! env.unbind("x", shadowed);
//! assert_eq!((seen, env["x"]), (3, 1));
//! ```

use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasher, Hash};

/// A table that can bind a key in place and later restore whatever the
/// binding shadowed.
///
/// Sets are tables whose values are `()`; binding a key a set already
/// holds shadows it, so restoring leaves it there.
pub trait Scope<K, V> {
    /// Binds `key` to `value`, returning the entry it shadows.
    fn bind(&mut self, key: K, value: V) -> Option<V>;

    /// Undoes a [`Scope::bind`] of `key`: puts back the `shadowed` entry,
    /// or removes the key if there was none.
    fn unbind(&mut self, key: K, shadowed: Option<V>);
}

impl<K: Hash + Eq, V, S: BuildHasher> Scope<K, V> for HashMap<K, V, S> {
    fn bind(&mut self, key: K, value: V) -> Option<V> {
        self.insert(key, value)
    }

    fn unbind(&mut self, key: K, shadowed: Option<V>) {
        match shadowed {
            Some(old) => {
                self.insert(key, old);
            }
            None => {
                self.remove(&key);
            }
        }
    }
}

impl<K: Hash + Eq, S: BuildHasher> Scope<K, ()> for HashSet<K, S> {
    fn bind(&mut self, key: K, (): ()) -> Option<()> {
        (!self.insert(key)).then_some(())
    }

    fn unbind(&mut self, key: K, shadowed: Option<()>) {
        if shadowed.is_none() {
            self.remove(&key);
        }
    }
}

impl<K: Ord> Scope<K, ()> for BTreeSet<K> {
    fn bind(&mut self, key: K, (): ()) -> Option<()> {
        (!self.insert(key)).then_some(())
    }

    fn unbind(&mut self, key: K, shadowed: Option<()>) {
        if shadowed.is_none() {
            self.remove(&key);
        }
    }
}

/// Runs `body` with `key ↦ value` bound in `table`, then restores the
/// entry the binding shadowed — after `body` returns, whatever it returns.
pub fn scoped<T, K, V, R>(table: &mut T, key: K, value: V, body: impl FnOnce(&mut T) -> R) -> R
where
    T: Scope<K, V> + ?Sized,
    K: Copy,
{
    let shadowed = table.bind(key, value);
    let result = body(table);
    table.unbind(key, shadowed);
    result
}

/// Undoes a sequence of [`Scope::bind`]s, newest first: the restore half of
/// a binder spine that is walked iteratively rather than by recursion.
pub fn unbind_all<K, V>(table: &mut (impl Scope<K, V> + ?Sized), log: Vec<(K, Option<V>)>) {
    for (key, shadowed) in log.into_iter().rev() {
        table.unbind(key, shadowed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_binding_is_restored() {
        let mut env: HashMap<u32, &str> = HashMap::new();
        env.insert(1, "outer");
        let seen = scoped(&mut env, 1, "inner", |env| env[&1]);
        assert_eq!(seen, "inner");
        assert_eq!(env[&1], "outer");
        scoped(&mut env, 2, "new", |env| assert_eq!(env[&2], "new"));
        assert!(!env.contains_key(&2));
    }

    #[test]
    fn restore_runs_on_the_error_path() {
        let mut env: HashMap<u32, u32> = HashMap::new();
        let r: Result<(), ()> = scoped(&mut env, 7, 7, |_| Err(()));
        assert!(r.is_err());
        assert!(env.is_empty());
    }

    #[test]
    fn set_keeps_a_key_it_already_held() {
        let mut set: HashSet<u32> = HashSet::from([3]);
        scoped(&mut set, 3, (), |_| ());
        assert!(set.contains(&3), "binding a held key must not drop it");
        scoped(&mut set, 4, (), |s| assert!(s.contains(&4)));
        assert!(!set.contains(&4));
        let mut tree: BTreeSet<u32> = BTreeSet::from([3]);
        scoped(&mut tree, 3, (), |_| ());
        scoped(&mut tree, 5, (), |_| ());
        assert_eq!(tree, BTreeSet::from([3]));
    }

    #[test]
    fn unbind_all_restores_a_spine_newest_first() {
        let mut env: HashMap<u32, u32> = HashMap::from([(1, 0)]);
        let log = vec![
            (1, env.bind(1, 1)),
            (1, env.bind(1, 2)),
            (2, env.bind(2, 2)),
        ];
        assert_eq!(env[&1], 2);
        unbind_all(&mut env, log);
        assert_eq!(env, HashMap::from([(1, 0)]));
    }
}
