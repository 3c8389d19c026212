// Fixture tree: poses as a hot-path file (src/p2p/sender.cpp) so the
// path-keyed hotpath-clock rule fires on every clock spelling it knows.
// Scanned with --root at the fixture tree.
// expect: hotpath-clock @ 12
// expect: hotpath-clock @ 13
// expect: hotpath-clock @ 14
// expect: hotpath-clock @ 16
// expect: hotpath-clock @ 17
// expect: allow-without-reason @ 19
// expect: hotpath-clock @ 20
void send_one(Tracker* tracker, Packet& pkt) {
  const std::uint64_t t0 = now_ns();
  const std::uint64_t c0 = CycleClock::now();
  const auto wall = std::chrono::steady_clock::now();
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  const std::uint64_t tsc = __builtin_ia32_rdtsc();
  // A reasonless allow suppresses nothing and is itself a finding.
  // lint: allow(hotpath-clock)
  tracker->track(pkt, now_ns());
}
