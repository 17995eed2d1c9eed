"""kinkdirac: Dirac fermion scattering and bound states on a sine-Gordon kink.

The pipeline evaluates local Heun functions (series + analytic continuation),
builds the local spinor solutions of the kink-background Dirac equation,
matches them across the kink via Wronskians, and extracts transmission/
reflection amplitudes, phase shifts, and bound-state energies.  An independent
direct-integration oracle validates every step.
"""
