//! Seeded `unsafe-code` violations: `unsafe` and raw SIMD outside the
//! lane kernel.

use std::arch::x86_64::__m512i;

fn read(p: *const u8) -> u8 {
    unsafe { *p }
}

fn ticks() -> u64 {
    // lint:allow(unsafe-code) seeded to prove the marker works
    unsafe { core::arch::x86_64::_rdtsc() }
}

// Neither the lint name nor a comment saying unsafe is a use.
#[allow(unsafe_code)]
fn arch(arch: u8) -> u8 {
    arch
}

#[cfg(test)]
mod tests {
    fn t() -> u64 {
        unsafe { core::arch::x86_64::_rdtsc() }
    }
}
