//! Flight-recorder rings of exited threads are reused. This is its own
//! test binary because the ring registry is process-global: threads of
//! other tests would change its size.

#[test]
fn exited_threads_hand_their_rings_to_new_threads() {
    obs::flight::configure(64);
    obs::flight::reset();
    let before = obs::flight::ring_count();
    for i in 0..200u64 {
        std::thread::spawn(move || obs::flight::note("reuse.seq", i, 0))
            .join()
            .expect("writer thread");
    }
    let grown = obs::flight::ring_count() - before;
    // One writer is alive at a time, so one ring serves them all.
    assert!(
        grown <= 2,
        "200 threads in sequence allocated {grown} rings"
    );
    // The ring stays registered after its thread exits: a drain still
    // sees the last writer's event.
    let dump = obs::flight::drain();
    assert!(
        dump.events
            .iter()
            .any(|e| e.name == "reuse.seq" && e.a == 199),
        "last writer's event is drainable after it exited"
    );

    // A new capacity takes effect for new threads: a free ring of
    // another size is not reused.
    obs::flight::configure(32);
    obs::flight::reset();
    std::thread::spawn(|| {
        for i in 0..40u64 {
            obs::flight::note("reuse.cap", i, 0);
        }
    })
    .join()
    .expect("writer thread");
    let kept = obs::flight::drain()
        .events
        .iter()
        .filter(|e| e.name == "reuse.cap")
        .count();
    assert_eq!(
        kept, 32,
        "the new thread wrote into a ring of the new capacity"
    );
}
