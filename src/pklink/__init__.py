"""Drug-concentration signalling through one-compartment pharmacokinetics.

The package models the body (or its two-beaker hardware twin) as a linear
channel from dosing schedules to compartment concentration, and layers a
complete transmit/receive chain on top: on-off keying of bit frames into
dose trains, deconvolution-based detection, parameter estimation from
concentration curves, and scenario-driven CLI tooling.

The API is the submodules; the package itself re-exports nothing.  Import
from them directly:

- ``pklink.channel``: parameters, dose schedules, closed-form responses;
- ``pklink.signals``: sampled signals, convolution, deconvolution, RK4;
- ``pklink.testbed``: the two-vessel hardware twin and its planning;
- ``pklink.modem``: framing, on-off keying, noise, detection, BER sweeps;
- ``pklink.fitting``: parameter estimation from concentration curves;
- ``pklink.scenarios``: built-in and YAML scenarios;
- ``pklink.errors``: the error taxonomy and CLI exit codes;
- ``pklink.cli``: the ``pklink`` command.
"""

__version__ = "0.1.0"
