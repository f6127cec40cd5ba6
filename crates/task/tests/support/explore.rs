//! A depth-first search over every order of a model's steps, with a
//! visited-state set. The handoff protocols' explorers share it: each
//! crate's unit tests include this file with `#[path]`.

use std::collections::HashSet;
use std::fmt::Debug;
use std::hash::Hash;

/// Visit every state reachable from `starts` through `next`, each once,
/// and `check` each one, telling it whether the state has no successor.
/// Panics with the first violation, the state and the last states of
/// the path to it;
/// otherwise prints and returns the number of states visited.
pub fn explore<S: Clone + Eq + Hash + Debug>(
    name: &str,
    starts: impl IntoIterator<Item = S>,
    next: impl Fn(&S) -> Vec<S>,
    check: impl Fn(&S, bool) -> Result<(), String>,
) -> usize {
    let mut seen = HashSet::new();
    for start in starts {
        let mut path: Vec<(S, Vec<S>)> = Vec::new();
        let mut step = Some(start);
        loop {
            if let Some(state) = step.take().filter(|s| seen.insert(s.clone())) {
                let after = next(&state);
                if let Err(why) = check(&state, after.is_empty()) {
                    let trail: Vec<&S> = path.iter().rev().take(8).map(|(s, _)| s).collect();
                    panic!("{name}: {why}\nin {state:#?}\nafter, latest first, {trail:#?}");
                }
                path.push((state, after));
            }
            let Some((_, after)) = path.last_mut() else {
                break;
            };
            step = after.pop();
            if step.is_none() {
                path.pop();
            }
        }
    }
    println!("{name}: {} states", seen.len());
    seen.len()
}
