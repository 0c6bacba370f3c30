//! Traced run: spans around every layer call, allocations counted.

#[global_allocator]
static ALLOC: m2m_perfbench::trace::CountingAlloc = m2m_perfbench::trace::CountingAlloc;

fn main() {
    std::process::exit(m2m_perfbench::main_entry(true));
}
