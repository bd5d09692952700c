# Run PROGRAM and fail unless its stdout equals the file EXPECTED byte
# for byte. The output is left in OUTPUT for a diff.
#
#   cmake -DPROGRAM=<binary> -DEXPECTED=<file> -DOUTPUT=<file>
#         -P expect_stdout.cmake

execute_process(COMMAND ${PROGRAM} OUTPUT_FILE ${OUTPUT}
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} exited with status ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUTPUT}
                        ${EXPECTED}
                RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR "${PROGRAM} printed other text than ${EXPECTED}; "
                        "see diff ${EXPECTED} ${OUTPUT}")
endif()
