// Seeded violation for the `timeline-isolation` determinism rule: a
// worker-visible timeline file reaching for the serial Tracer. The
// Tracer is single-threaded by contract; calling it from code that pool
// workers execute is a data race. The linter must flag every access
// token below (tests/test_lint_fixtures.py asserts it does).

namespace mrlg::obs {

class Tracer;
Tracer* current_tracer();

void record_span_badly() {
    // BAD: worker-path code consulting the ambient serial tracer.
    Tracer* t = current_tracer();
    (void)t;
}

}  // namespace mrlg::obs
