"""Seeded scenario files for the three benchmark workloads.

Each workload is a fixed scenario template plus three bump parameters
(amplitude, width, center) that the seed draws from a narrow range
around the base value. The ranges stay well inside the validator's
support-buffer check, and narrow enough that the deterministic drift
and defect metrics move by a few percent from seed to seed, not by
their regression bound.

The program only ever sees the generated text, written to a file.
"""

import random

# relative half-width of the seeded draw around each base value; the
# charge drift of lab_transport moves ~6 % per 1 % of width
_AMPLITUDE_SPREAD = 0.01
_WIDTH_SPREAD = 0.0025

# t_end is kept short, so that one run times many operations and its
# median follows the host's drifting speed less (see README.md).
_LAB_TRANSPORT = """\
# massless Thirring packet on the lab grid: T1 plus the Hamiltonian
system = lab_1d
model = thirring
coupling = 1.0
mass = 0.0
initial = bump
amplitude = {amplitude}
width = {width}
center = {center}
x_min = -200
x_max = 200
n_points = 8001
dt = 0.02
t_end = 18
sample_stride = 25
observables = charge, hamiltonian, momentum
regions = log_window
out_dir = lab_transport
"""

_SPINOR_VIRIALS = """\
# odd massive bump sampled every step, seven virial identities checked
system = spinor_1d
model = quartic_harmonic
coupling = 1.0
mass = 1.0
initial = bump
amplitude = {amplitude}
width = {width}
parity = odd
x_min = -40
x_max = 40
n_points = 1601
dt = 0.02
t_end = 4
sample_stride = 1
identities = H_sech_1d, I_weighted_charge, J1, J2, J3, J4, J_quartet_combined
regions = log_window, ball:5
out_dir = spinor_virials
"""

_RADIAL_SOLER = """\
# radial Soler packet: the T3 setup
system = radial_3d
model = soler
coupling = 1.0
mass = 1.0
initial = bump
amplitude = {amplitude}
width = {width}
r_max = 100
n_cells = 4000
dt = 0.0125
t_end = 16
sample_stride = 80
observables = charge
regions = ball:1, ball:5
out_dir = radial_soler
"""

# name -> (template, base amplitude, base width, center half-range).
# The center is drawn only where moving it is a pure translation: an
# odd-parity bump must sit at 0, and a radial center > 0 switches to a
# different (annular) profile.
WORKLOADS = {
    "lab_transport": (_LAB_TRANSPORT, 0.3, 2.0, 0.5),
    "spinor_virials": (_SPINOR_VIRIALS, 0.1, 2.0, None),
    "radial_soler": (_RADIAL_SOLER, 0.05, 2.0, None),
}


def scenario_text(workload, seed):
    """Scenario file text for ``workload``; equal seeds give equal text."""
    template, amplitude, width, center_range = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    params = {
        "amplitude": amplitude * rng.uniform(1 - _AMPLITUDE_SPREAD,
                                             1 + _AMPLITUDE_SPREAD),
        "width": width * rng.uniform(1 - _WIDTH_SPREAD, 1 + _WIDTH_SPREAD),
    }
    if center_range is not None:
        params["center"] = rng.uniform(-center_range, center_range)
    return template.format(**{k: f"{v:.6f}" for k, v in params.items()})
