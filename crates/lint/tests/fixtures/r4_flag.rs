// Positive fixture for R4 (no-raw-spawn): raw std::thread spawns and a
// scoped-thread block outside runtime/src/pool.rs. The same scope in
// test code is out of scope.
pub fn fan_out(n: usize) {
    let handles: Vec<_> = (0..n).map(|_| std::thread::spawn(|| {})).collect();
    let named = std::thread::Builder::new().name("rogue".into());
    for h in handles {
        h.join().unwrap();
    }
    drop(named);
    std::thread::scope(|s| {
        s.spawn(|| {});
    });
}

#[cfg(test)]
mod tests {
    #[test]
    fn scoped_threads_in_tests_are_fine() {
        std::thread::scope(|s| {
            s.spawn(|| {});
        });
    }
}
