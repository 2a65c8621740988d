# Requires an mbctl report's makespan to lie inside the static bounds that
# analyze-static predicted for the same scenario:
#
#   cmake -DSTATIC=<mb-static-analysis> -DREPORT=<mb-bench-report>
#         -DRECORD=<record name> -P check_bounds.cmake
file(READ "${STATIC}" static)
file(READ "${REPORT}" report)
string(JSON lower GET "${static}" bounds makespan_lower_s)
string(JSON upper GET "${static}" bounds makespan_upper_s)
string(JSON count LENGTH "${report}" benchmarks)
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
  string(JSON name GET "${report}" benchmarks ${i} name)
  if(name STREQUAL RECORD)
    string(JSON makespan GET "${report}" benchmarks ${i} samples 0)
  endif()
endforeach()
if(NOT DEFINED makespan)
  message(FATAL_ERROR "${REPORT} has no record ${RECORD}")
endif()
if(makespan LESS lower OR makespan GREATER upper)
  message(FATAL_ERROR
          "${RECORD} = ${makespan} s lies outside the static bounds "
          "[${lower}, ${upper}] s")
endif()
message(STATUS "${lower} <= ${makespan} <= ${upper}")
