//! End-to-end run: tracing off, the system allocator.

fn main() {
    std::process::exit(m2m_perfbench::main_entry(false));
}
