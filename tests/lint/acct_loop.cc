// Fixture: acct-loop rule. Note-level, so the exit stays 0 even
// with a live diagnostic. Linted as if at src/apps/acct_loop.cc --
// inside src/, where the rule applies.

using Addr = unsigned long long;
constexpr Addr cacheLineSize = 64;

unsigned long long
perLineWalk(Addr pa, Addr end)
{
    unsigned long long lines = 0;
    // Fires: per-line accounting walk in the for-header.
    for (Addr a = pa; a < end; a += cacheLineSize)
        ++lines;
    // Does not fire: the stride is applied in the body, not the
    // header (chunked functional copies look like this).
    for (Addr a = pa; a < end;) {
        a += cacheLineSize;
        ++lines;
    }
    // Suppressed: the sanctioned per-victim occupy() idiom.
    for (Addr a = pa; a < end;
         a += cacheLineSize) // simlint:allow(acct-loop)
        ++lines;
    return lines;
}
