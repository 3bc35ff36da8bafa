// Fixture: a file that declares itself an opted-in fast-math kernel
// still gets the finding — no file-level marker exempts a file from
// the rule (expected findings: 1).
// FAST-MATH OPT-IN: contraction is part of this kernel's contract.
#pragma STDC FP_CONTRACT ON

float
fma3(float a, float b, float c)
{
    return a * b + c;
}
